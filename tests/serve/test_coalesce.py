"""Unit tests for in-flight request coalescing."""

from repro.serve.coalesce import RequestCoalescer
from repro.serve.scheduler import ServeRequest


def request():
    return ServeRequest(query=None, algorithm="greedy")


class TestCoalescer:
    def test_first_leads_rest_follow(self):
        coalescer = RequestCoalescer()
        leader, f1, f2 = request(), request(), request()
        assert coalescer.lead_or_follow("k", leader)
        assert not coalescer.lead_or_follow("k", f1)
        assert not coalescer.lead_or_follow("k", f2)
        assert coalescer.coalesced == 2
        assert coalescer.in_flight() == 1

    def test_distinct_keys_lead_independently(self):
        coalescer = RequestCoalescer()
        assert coalescer.lead_or_follow("a", request())
        assert coalescer.lead_or_follow("b", request())
        assert coalescer.in_flight() == 2
        assert coalescer.coalesced == 0

    def test_complete_returns_followers_and_clears(self):
        coalescer = RequestCoalescer()
        leader, follower = request(), request()
        coalescer.lead_or_follow("k", leader)
        coalescer.lead_or_follow("k", follower)
        followers = coalescer.complete("k")
        assert followers == [follower]
        assert coalescer.in_flight() == 0
        # after completion the key is free again
        assert coalescer.lead_or_follow("k", request())

    def test_complete_unknown_key_is_empty(self):
        assert RequestCoalescer().complete("nope") == []

    def test_withdraw_orphans_followers(self):
        coalescer = RequestCoalescer()
        leader, follower = request(), request()
        coalescer.lead_or_follow("k", leader)
        coalescer.lead_or_follow("k", follower)
        assert coalescer.withdraw("k") == [follower]
        assert coalescer.in_flight() == 0

    def test_detach_removes_one_follower(self):
        coalescer = RequestCoalescer()
        leader, gone, stays = request(), request(), request()
        coalescer.lead_or_follow("k", leader)
        coalescer.lead_or_follow("k", gone)
        coalescer.lead_or_follow("k", stays)
        assert coalescer.detach("k", gone)
        assert not coalescer.detach("k", gone)
        assert not coalescer.detach("k", leader)
        assert coalescer.complete("k") == [stays]
        # once the leader took its followers, detach reports it
        assert not coalescer.detach("k", stays)

    def test_as_dict(self):
        coalescer = RequestCoalescer()
        coalescer.lead_or_follow("k", request())
        coalescer.lead_or_follow("k", request())
        assert coalescer.as_dict() == {"coalesced": 1, "in_flight": 1}
