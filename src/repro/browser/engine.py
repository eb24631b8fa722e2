"""The page-load engine: turns a blueprint visit into OpenWPM-style records.

This is the stand-in for Firefox+OpenWPM.  For each visit the engine

1. decides whether the visit fails (the seed-derived fault taxonomy of
   :mod:`repro.web.faults`: dns-error, connection-reset, http-5xx,
   browser-crash, stall-timeout),
2. emits the main-frame request,
3. recursively traverses the blueprint's slots, asking the
   :class:`~repro.web.dynamics.SlotSampler` which ones load,
4. materializes concrete URLs (session params, creative tokens),
5. emits redirect hops for cookie-sync chains,
6. allocates frame ids for sub-frames and records call stacks for
   script/CSS/fetch-initiated loads,
7. collects cookies into an RFC 6265 jar.

Interaction-gated content loads during the *interaction phase* (after the
keystroke script starts), which is visible in the request timestamps — the
same signal a real measurement would see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..errors import TransientCrawlError
from ..rng import child_rng, derive_seed, token_hex
from ..web.blueprint import InitiatorKind, PageBlueprint, ResourceSlot
from ..web.dynamics import SlotSampler, VisitConditions
from ..web.faults import FaultPlan, STALL_TIMEOUT
from ..web.resources import ResourceType
from ..web.url import URL
from .callstack import CallStack, EMPTY_STACK
from .cookies import Cookie, CookieJar
from .frames import MAIN_FRAME_ID, FrameTree
from .interaction import script_for
from .network import (
    CookieRecord,
    RedirectRecord,
    RequestIdAllocator,
    RequestRecord,
    ResponseRecord,
    VisitRecord,
    VisitResult,
)
from .profile import BrowserProfile

#: Per-slot probability of a network stall (a slowly answering third
#: party); stalls are what make the page-visit timeout bind.
_STALL_PROBABILITY = 0.01
_STALL_SECONDS = (1.0, 8.0)


class _VisitTimeout(TransientCrawlError):
    """Internal: the visit exceeded the configured timeout (retryable)."""

    failure_reason = STALL_TIMEOUT


class _InjectedFault(TransientCrawlError):
    """Internal: a drawn fault from the taxonomy aborted the visit.

    ``duration`` is the visit's seeded sub-timeout duration — non-timeout
    failures resolve before the deadline, so kind and duration agree in
    Table-1-style reports.
    """

    def __init__(self, reason: str, duration: float) -> None:
        super().__init__(f"injected fault: {reason}")
        self.failure_reason = reason
        self.duration = duration


@dataclass
class _LoadContext:
    """Traversal state handed from parent slot to children."""

    frame_id: int
    parent_frame_id: Optional[int]
    parent_url: str
    during_interaction: bool


class BrowserEngine:
    """Simulates page visits for one browser profile.

    ``seed`` is the experiment seed; per-visit randomness is derived from
    ``(seed, page URL, profile name, visit_id)`` so re-running a crawl is
    reproducible while distinct profiles/visits stay independent — including
    the two identical Sim profiles, whose visits are independent draws just
    like two real parallel browsers.
    """

    def __init__(
        self,
        profile: BrowserProfile,
        seed: int,
        timeout: float = 30.0,
        stall_probability: float = _STALL_PROBABILITY,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.timeout = timeout
        self.stall_probability = stall_probability
        self._conditions = VisitConditions(
            user_interaction=profile.user_interaction,
            browser_version=profile.major_version,
            headless=profile.headless,
        )
        self._fault_plans: dict = {}

    # -- public API --------------------------------------------------------

    def visit(
        self,
        page: PageBlueprint,
        site: str,
        site_rank: int,
        visit_id: int,
        started_at: float = 0.0,
        jar: Optional[CookieJar] = None,
        attempt: int = 1,
    ) -> VisitResult:
        """Visit ``page`` once, returning all records the visit produced.

        Failed visits return a :class:`VisitResult` with ``success=False``;
        a ``stall-timeout`` additionally carries the *partial* traffic
        observed before the deadline (``visit.partial``) — the crawl layer
        decides whether to persist it.  ``attempt`` is bookkeeping for the
        retry layer: the visit's randomness derives from ``visit_id``
        (distinct per attempt), so a retry is an independent draw while
        persistent faults — pinned to the page — repeat exactly.  Passing
        a ``jar`` runs the visit *statefully*: cookies accumulate in the
        caller's jar instead of a fresh one (the paper's crawl is
        stateless, which is the default).
        """
        visit_seed = derive_seed(self.seed, "visit", str(page.url), self.profile.name, visit_id)
        state = _VisitState(
            page=page,
            sampler=SlotSampler(page, self._conditions, visit_seed),
            clock=_Clock(started_at, child_rng(visit_seed, "clock")),
            visit_id=visit_id,
            visit_seed=visit_seed,
            jar=jar,
        )
        state.deadline = started_at + self.timeout
        state.stall_probability = self.stall_probability
        try:
            fault = self._fault_plan(page).draw(visit_seed)
            if fault is not None and not fault.produces_traffic:
                raise _InjectedFault(
                    fault.kind, fault.duration_fraction * self.timeout
                )
            if fault is not None:
                # stall-timeout: the page hangs after a seeded number of
                # requests; what loaded before is the salvageable prefix.
                state.forced_stall_after = fault.stall_after
            self._load_page(state)
            if state.forced_stall_after is not None:
                raise _VisitTimeout()  # page "finished" but a request hangs
        except _InjectedFault as exc:
            visit = self._failed_visit(
                page, site, site_rank, visit_id, started_at,
                duration=exc.duration,
                reason=exc.failure_reason,
                attempt=attempt,
            )
            return VisitResult(visit=visit)
        except _VisitTimeout as exc:
            # Partial-visit salvage: the traffic observed before the
            # deadline is real measurement data, not garbage; keep it and
            # flag the visit so the analysis can opt in (or, by default,
            # exclude it as the paper does).
            visit = self._failed_visit(
                page, site, site_rank, visit_id, started_at,
                duration=self.timeout,
                reason=exc.failure_reason,
                attempt=attempt,
                partial=bool(state.requests),
            )
            return VisitResult(
                visit=visit,
                requests=tuple(state.requests),
                responses=tuple(state.responses),
                redirects=tuple(state.redirects),
                cookies=self._cookie_records(state),
            )
        visit = VisitRecord(
            visit_id=visit_id,
            profile_name=self.profile.name,
            site=site,
            site_rank=site_rank,
            page_url=str(page.url),
            success=True,
            started_at=started_at,
            duration=state.clock.now - started_at,
            attempt=attempt,
        )
        return VisitResult(
            visit=visit,
            requests=tuple(state.requests),
            responses=tuple(state.responses),
            redirects=tuple(state.redirects),
            cookies=self._cookie_records(state),
        )

    # -- internals ---------------------------------------------------------

    def _fault_plan(self, page: PageBlueprint) -> FaultPlan:
        """The page's seed-derived fault plan (cached per page URL)."""
        url = str(page.url)
        plan = self._fault_plans.get(url)
        if plan is None:
            plan = FaultPlan.for_page(self.seed, url, page.fail_probability)
            self._fault_plans[url] = plan
        return plan

    def _failed_visit(
        self,
        page: PageBlueprint,
        site: str,
        site_rank: int,
        visit_id: int,
        started_at: float,
        *,
        duration: float,
        reason: str,
        attempt: int,
        partial: bool = False,
    ) -> VisitRecord:
        return VisitRecord(
            visit_id=visit_id,
            profile_name=self.profile.name,
            site=site,
            site_rank=site_rank,
            page_url=str(page.url),
            success=False,
            started_at=started_at,
            duration=duration,
            failure_reason=reason,
            attempt=attempt,
            partial=partial,
        )

    def _cookie_records(self, state: "_VisitState"):
        return tuple(
            CookieRecord(
                visit_id=state.visit_id,
                name=c.name,
                domain=c.domain,
                path=c.path,
                value=c.value,
                secure=c.secure,
                http_only=c.http_only,
                same_site=c.same_site,
                set_by_url=state.cookie_setters.get(c.identity, str(state.page.url)),
            )
            for c in state.jar.snapshot()
        )

    def _load_page(self, state: "_VisitState") -> None:
        page_url = str(state.page.url)
        main_request = RequestRecord(
            request_id=state.ids.allocate(),
            visit_id=state.visit_id,
            url=page_url,
            top_level_url=page_url,
            resource_type=ResourceType.MAIN_FRAME.value,
            frame_id=MAIN_FRAME_ID,
            parent_frame_id=None,
            timestamp=state.clock.tick(),
            call_stack=EMPTY_STACK,
        )
        state.requests.append(main_request)
        state.responses.append(
            ResponseRecord(
                visit_id=state.visit_id,
                request_id=main_request.request_id,
                status=200,
                headers=self._sample_headers(state),
            )
        )
        context = _LoadContext(
            frame_id=MAIN_FRAME_ID,
            parent_frame_id=None,
            parent_url=page_url,
            during_interaction=False,
        )
        # Load phase: everything not gated on interaction.  Requests race
        # on the network, so sibling order varies per visit — which decides
        # the observed parent when the same URL is referenced from several
        # places (first request wins the attribution).
        for slot in _shuffled(state.page.slots, state.visit_seed, "top"):
            self._load_slot(state, slot, context, phase="load", ancestor_gated=False)
        # Interaction phase: keystrokes unlock the gated subtrees.
        script = script_for(self.profile.user_interaction)
        if len(script) > 0:
            state.clock.advance(script.total_delay)
            interaction_context = _LoadContext(
                frame_id=MAIN_FRAME_ID,
                parent_frame_id=None,
                parent_url=page_url,
                during_interaction=True,
            )
            for slot in _shuffled(state.page.slots, state.visit_seed, "top-i"):
                self._load_slot(
                    state, slot, interaction_context, phase="interaction", ancestor_gated=False
                )

    def _load_slot(
        self,
        state: "_VisitState",
        slot: ResourceSlot,
        context: _LoadContext,
        phase: str,
        ancestor_gated: bool,
    ) -> None:
        """Load ``slot`` (and recursively its children) if it is due in ``phase``.

        Each slot belongs to exactly one phase: slots that are
        interaction-gated — or sit under a gated ancestor — load in the
        interaction phase, everything else in the load phase.  During the
        interaction pass, load-phase slots are traversed *without* being
        re-emitted (their child context was cached by the load pass) so that
        gated descendants of eager containers still get a correct parent.
        """
        gated = slot.rule.requires_interaction or ancestor_gated
        slot_phase = "interaction" if gated else "load"
        if phase == "load" and slot_phase == "interaction":
            return  # whole subtree waits for the interaction pass
        if slot_phase == phase:
            if not state.sampler.is_included(slot):
                return
            concrete = state.sampler.concrete_url(slot)
            emit_context = _LoadContext(
                frame_id=context.frame_id,
                parent_frame_id=context.parent_frame_id,
                parent_url=context.parent_url,
                during_interaction=(phase == "interaction"),
            )
            if slot.resource_type == ResourceType.SUB_FRAME:
                # Firefox loads the frame document *inside* the new browsing
                # context: its requests carry the new frame id with the
                # container as parent frame.  The frame is created first so
                # the document request can be attributed to it.
                frame = state.frames.create_subframe(
                    parent_frame_id=context.frame_id,
                    url=str(concrete),
                    creator_request_id=-1,
                )
                emit_context = _LoadContext(
                    frame_id=frame.frame_id,
                    parent_frame_id=context.frame_id,
                    parent_url=context.parent_url,
                    during_interaction=(phase == "interaction"),
                )
                final_request = self._emit_request_chain(state, slot, concrete, emit_context)
                child_context = _LoadContext(
                    frame_id=frame.frame_id,
                    parent_frame_id=context.frame_id,
                    parent_url=str(concrete),
                    during_interaction=(phase == "interaction"),
                )
            else:
                final_request = self._emit_request_chain(state, slot, concrete, emit_context)
                child_context = _LoadContext(
                    frame_id=emit_context.frame_id,
                    parent_frame_id=emit_context.parent_frame_id,
                    parent_url=str(concrete),
                    during_interaction=emit_context.during_interaction,
                )
            self._set_cookies(state, slot, concrete)
            state.slot_contexts[slot.slot_id] = child_context
        else:
            # Interaction pass crossing an eager slot: the load pass cached
            # its child context exactly when it included the slot, so the
            # inclusion and URL draws are not repeated.
            cached = state.slot_contexts.get(slot.slot_id)
            if cached is None:
                return
            child_context = _LoadContext(
                frame_id=cached.frame_id,
                parent_frame_id=cached.parent_frame_id,
                parent_url=cached.parent_url,
                during_interaction=True,
            )
        for child in _shuffled(slot.children, state.visit_seed, slot.slot_id):
            self._load_slot(state, child, child_context, phase=phase, ancestor_gated=gated)

    def _emit_request_chain(
        self,
        state: "_VisitState",
        slot: ResourceSlot,
        concrete: URL,
        context: _LoadContext,
    ) -> RequestRecord:
        """Emit the slot's request, preceded by any redirect hops.

        The initiator attribution (call stack / frame) attaches to the first
        hop; each later hop points at its predecessor via ``redirect_from``
        plus a :class:`RedirectRecord`, exactly how OpenWPM stores chains.

        Fixed ``redirect_via`` chains *precede* the slot URL (an http→https
        or CDN hop ends at the resource).  Per-visit ``redirect_pool``
        chains *follow* it (a tracking pixel answers with redirects to its
        sync partners), and every partner hop sets a sync cookie on its own
        domain — that is what cookie syncing is for.
        """
        stack = self._stack_for(slot, context)
        if (
            state.forced_stall_after is not None
            and len(state.requests) > state.forced_stall_after
        ):
            # The injected stall-timeout fault: this request never answers
            # and the browser hangs on it until the visit deadline fires.
            state.clock.advance(max(0.0, state.deadline - state.clock.now))
            raise _VisitTimeout()
        stall_rng = child_rng(state.visit_seed, "stall", slot.slot_id)
        if state.stall_probability > 0 and stall_rng.random() < state.stall_probability:
            state.clock.advance(stall_rng.uniform(*_STALL_SECONDS))
        if state.clock.now > state.deadline:
            raise _VisitTimeout()
        sampled = list(state.sampler.sample_redirects(slot))
        if slot.redirect_pool:
            hops: List[URL] = [concrete] + sampled
        else:
            hops = sampled + [concrete]
        previous: Optional[RequestRecord] = None
        for hop_url in hops:
            record = RequestRecord(
                request_id=state.ids.allocate(),
                visit_id=state.visit_id,
                url=str(hop_url),
                top_level_url=str(state.page.url),
                resource_type=slot.resource_type.value,
                frame_id=context.frame_id,
                parent_frame_id=context.parent_frame_id,
                timestamp=state.clock.tick(),
                call_stack=stack if previous is None else EMPTY_STACK,
                redirect_from=previous.request_id if previous else None,
                during_interaction=context.during_interaction,
            )
            state.requests.append(record)
            is_final = hop_url is hops[-1]
            if is_final:
                status_rng = child_rng(state.visit_seed, "status", slot.slot_id)
                status = 404 if status_rng.random() < 0.01 else 200
            else:
                status = 302
            state.responses.append(
                ResponseRecord(
                    visit_id=state.visit_id,
                    request_id=record.request_id,
                    status=status,
                    headers=(("content-type", _CONTENT_TYPES.get(slot.resource_type, "application/octet-stream")),),
                )
            )
            if previous is not None:
                state.redirects.append(
                    RedirectRecord(
                        visit_id=state.visit_id,
                        from_request_id=previous.request_id,
                        to_request_id=record.request_id,
                        from_url=previous.url,
                        to_url=record.url,
                    )
                )
            previous = record
        assert previous is not None  # hops is never empty
        if slot.redirect_pool:
            for hop_url in sampled:
                rng = state.sampler.cookie_rng(slot, f"sync:{hop_url.host}")
                state.jar.set(
                    Cookie(
                        name="psync",
                        domain=hop_url.host,
                        value=token_hex(rng, 8),
                        secure=True,
                        same_site="None",
                    )
                )
                state.cookie_setters[("psync", hop_url.host, "/")] = str(hop_url)
        return previous

    def _stack_for(self, slot: ResourceSlot, context: _LoadContext) -> CallStack:
        if slot.initiator == InitiatorKind.DOCUMENT:
            return EMPTY_STACK
        if slot.initiator == InitiatorKind.FRAME:
            # The script that inserted the iframe appears as the initiator,
            # but only when the parent actually is a script; markup-inserted
            # frames have no stack.
            if context.parent_url.endswith(".js") or "/gtm.js" in context.parent_url:
                return CallStack.for_initiator(context.parent_url, func_name="insertFrame")
            return EMPTY_STACK
        func = {
            InitiatorKind.SCRIPT: "loadResource",
            InitiatorKind.FETCH: "fetch",
            InitiatorKind.CSS: "css-import",
        }[slot.initiator]
        return CallStack.for_initiator(context.parent_url, func_name=func)

    def _sample_headers(self, state: "_VisitState"):
        """Sample the document's security headers for this visit.

        Each header is drawn independently per visit — the "security
        lottery" behaviour where identical requests receive different
        security configurations.
        """
        headers = [("content-type", "text/html")]
        rng = child_rng(state.visit_seed, "headers")
        for template in state.page.headers:
            if rng.random() >= template.presence_probability:
                continue
            value = template.value
            if template.flaky_probability > 0 and rng.random() < template.flaky_probability:
                value = template.flaky_value
            headers.append((template.name, value))
        return tuple(headers)

    def _set_cookies(self, state: "_VisitState", slot: ResourceSlot, concrete: URL) -> None:
        for template in slot.cookies:
            rng = state.sampler.cookie_rng(slot, template.name)
            if template.set_probability < 1.0 and rng.random() >= template.set_probability:
                continue
            secure, http_only = template.secure, template.http_only
            if template.flaky_attributes and rng.random() < 0.5:
                secure = not secure
            value = (
                token_hex(rng, 8)
                if template.per_visit_value
                else f"v-{template.name}"
            )
            name = template.name
            if template.random_name_suffix:
                name = f"{name}_{token_hex(rng, 3)}"
            cookie = Cookie(
                name=name,
                domain=template.domain,
                path=template.path,
                value=value,
                secure=secure,
                http_only=http_only,
                same_site=template.same_site,
            )
            state.jar.set(cookie)
            state.cookie_setters[cookie.identity] = str(concrete)


_CONTENT_TYPES = {
    ResourceType.MAIN_FRAME: "text/html",
    ResourceType.SUB_FRAME: "text/html",
    ResourceType.SCRIPT: "application/javascript",
    ResourceType.STYLESHEET: "text/css",
    ResourceType.IMAGE: "image/png",
    ResourceType.IMAGESET: "image/webp",
    ResourceType.FONT: "font/woff2",
    ResourceType.MEDIA: "video/mp4",
    ResourceType.XHR: "application/json",
    ResourceType.BEACON: "image/gif",
}


def _shuffled(slots, visit_seed: int, label: str):
    """Sibling slots in this visit's network-race order."""
    ordered = list(slots)
    if len(ordered) > 1:  # shuffling 0 or 1 items draws nothing
        child_rng(visit_seed, "order", label).shuffle(ordered)
    return ordered


class _Clock:
    """The visit clock: monotone timestamps with jittered increments."""

    def __init__(self, start: float, rng: random.Random) -> None:
        self.now = start
        self._rng = rng

    def tick(self) -> float:
        self.now += self._rng.uniform(0.005, 0.08)
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _VisitState:
    """Mutable accumulator for one visit."""

    def __init__(
        self,
        page: PageBlueprint,
        sampler: SlotSampler,
        clock: _Clock,
        visit_id: int,
        visit_seed: int,
        jar: Optional[CookieJar] = None,
    ) -> None:
        self.page = page
        self.sampler = sampler
        self.clock = clock
        self.visit_id = visit_id
        self.visit_seed = visit_seed
        self.ids = RequestIdAllocator()
        self.requests: List[RequestRecord] = []
        self.responses: List[ResponseRecord] = []
        self.redirects: List[RedirectRecord] = []
        self.frames = FrameTree(str(page.url))
        self.jar = jar if jar is not None else CookieJar()
        self.cookie_setters: dict = {}
        self.slot_contexts: dict = {}
        self.deadline: float = float("inf")
        self.stall_probability: float = 0.0
        # Set when a stall-timeout fault was drawn: the request after this
        # many observed requests hangs until the deadline.
        self.forced_stall_after: Optional[int] = None
