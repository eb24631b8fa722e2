"""Slot sampling constructs no RNG stream for a slot without URL dynamics."""

import pytest

from repro.web import dynamics
from repro.web.blueprint import InclusionRule, PageBlueprint, ResourceSlot
from repro.web.dynamics import SlotSampler, VisitConditions
from repro.web.resources import ResourceType
from repro.web.url import URL

FULL = VisitConditions(user_interaction=True, browser_version=95, headless=False)


class StreamBuilt(AssertionError):
    pass


@pytest.fixture
def no_streams(monkeypatch):
    def forbidden(seed, *labels):
        raise StreamBuilt(labels)

    monkeypatch.setattr(dynamics, "child_rng", forbidden)


def sampler_for(slot: ResourceSlot) -> SlotSampler:
    page = PageBlueprint(url=URL.parse("https://e.com/"), slots=(slot,))
    return SlotSampler(page, FULL, visit_seed=1)


def slot(**kwargs) -> ResourceSlot:
    return ResourceSlot(
        slot_id="s",
        url=URL.parse("https://cdn.com/lib.js?v=3"),
        resource_type=ResourceType.SCRIPT,
        rule=InclusionRule(),
        **kwargs,
    )


def test_plain_slot_url_builds_no_stream(no_streams):
    plain = slot()
    assert sampler_for(plain).concrete_url(plain) is plain.url


@pytest.mark.parametrize(
    "kwargs", [{"session_param": "sid"}, {"unique_path_token": True}], ids=["session", "token"]
)
def test_dynamic_slot_url_builds_its_stream(no_streams, kwargs):
    dynamic = slot(**kwargs)
    with pytest.raises(StreamBuilt):
        sampler_for(dynamic).concrete_url(dynamic)
