"""The visit path constructs no RNG stream that would draw nothing.

Streams are keyed by label path, not by call order, so skipping one never
changes what another stream draws.  Each test makes ``child_rng`` raise for
the streams that must not be built, and keeps a positive control showing
the guard does fire when a stream is needed.
"""

from collections import Counter

import pytest

from repro.browser import engine
from repro.browser.engine import BrowserEngine, _shuffled
from repro.browser.profile import PROFILE_SIM1
from repro.rng import child_rng
from repro.web import dynamics
from repro.web.blueprint import (
    InclusionRule,
    InitiatorKind,
    PageBlueprint,
    ResourceSlot,
)
from repro.web.resources import ResourceType
from repro.web.url import URL


class StreamBuilt(AssertionError):
    pass


def guard(monkeypatch, module, forbidden=None):
    """Patch ``module.child_rng``: raise for streams whose first label is in
    ``forbidden`` (every stream when it is None), record the rest."""
    built = Counter()

    def guarded(seed, *labels):
        if forbidden is None or labels[0] in forbidden:
            raise StreamBuilt(labels)
        built[labels] += 1
        return child_rng(seed, *labels)

    monkeypatch.setattr(module, "child_rng", guarded)
    return built


def url(path: str, host: str = "e.com") -> URL:
    return URL.parse(f"https://{host}{path}")


def visit(page: PageBlueprint):
    engine_ = BrowserEngine(PROFILE_SIM1, seed=3)
    return engine_.visit(page, site="e.com", site_rank=1, visit_id=1)


class TestShuffle:
    @pytest.mark.parametrize("slots", [(), ("only",)])
    def test_zero_or_one_slot_builds_no_stream(self, monkeypatch, slots):
        guard(monkeypatch, engine)
        assert _shuffled(slots, 1, "top") == list(slots)

    def test_two_slots_still_shuffle(self, monkeypatch):
        built = guard(monkeypatch, engine, forbidden=())
        assert sorted(_shuffled(("a", "b"), 1, "top")) == ["a", "b"]
        assert built[("order", "top")] == 1


class TestInteractionPass:
    def test_eager_slots_are_sampled_once_per_visit(self, monkeypatch):
        built = guard(monkeypatch, dynamics, forbidden=())
        eager = ResourceSlot(
            slot_id="eager",
            url=url("/px.gif", "trk.com"),
            resource_type=ResourceType.BEACON,
            initiator=InitiatorKind.DOCUMENT,
            rule=InclusionRule(probability=0.999),
            session_param="uid",
        )
        lazy = ResourceSlot(
            slot_id="lazy",
            url=url("/lazy.png"),
            resource_type=ResourceType.IMAGE,
            rule=InclusionRule(requires_interaction=True, probability=0.999),
        )
        page = PageBlueprint(url=url("/"), slots=(eager, lazy))
        assert PROFILE_SIM1.user_interaction
        result = visit(page)
        assert len(result.requests) == 3
        assert built[("include", "eager")] == 1
        assert built[("url", "eager")] == 1
        assert built[("include", "lazy")] == 1
