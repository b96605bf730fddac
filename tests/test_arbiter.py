"""Unit tests for the iSlip arbiter."""

from collections import Counter

import pytest

from repro.network.arbiter import ISlip


def assert_valid_matching(requests, match):
    outs = list(match.values())
    assert len(outs) == len(set(outs)), "output matched twice"
    for inp, out in match.items():
        assert out in requests[inp], "granted an unrequested output"


class TestISlipLrg:
    def test_single_request_granted(self):
        arb = ISlip(4, 4)
        assert arb.match({2: [3]}) == {2: 3}

    def test_empty_requests(self):
        arb = ISlip(4, 4)
        assert arb.match({}) == {}
        assert arb.match({1: []}) == {}

    def test_valid_matching_under_contention(self):
        arb = ISlip(4, 4)
        requests = {0: [0, 1], 1: [0, 1], 2: [0], 3: [1]}
        m = arb.match(requests)
        assert_valid_matching(requests, m)
        assert len(m) == 2  # both outputs used

    def test_two_iterations_fill_the_matching(self):
        # input 0 wants both outputs; inputs 1 wants only output 0.
        # After iteration 1 grants collide, iteration 2 must pair the rest.
        arb = ISlip(2, 2, iterations=2)
        m = arb.match({0: [0, 1], 1: [0]})
        assert len(m) == 2

    def test_long_run_fairness_on_hot_output(self):
        """Three inputs permanently requesting one output each get ~1/3
        of the grants — the inter-port fairness of §IV-C."""
        arb = ISlip(4, 4)
        wins = Counter()
        for _ in range(900):
            m = arb.match({0: [2], 1: [2], 3: [2]})
            wins[next(iter(m))] += 1
        assert wins[0] == wins[1] == wins[3] == 300

    def test_lrg_immune_to_interleaved_pointer_capture(self):
        """The pathology that starves pointer-RR: an interleaving
        request pattern where input 1 and 2 contend only every other
        round, with input 0 served in between."""
        lrg = ISlip(3, 1)
        wins = Counter()
        for _ in range(200):
            m = lrg.match({0: [0]})           # interleaved solo grant
            m = lrg.match({1: [0], 2: [0]})   # the contested slot
            wins[next(iter(m))] += 1
        assert wins[1] == wins[2] == 100

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ISlip(0, 4)
        with pytest.raises(ValueError):
            ISlip(4, 4, iterations=0)
