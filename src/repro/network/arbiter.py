"""iSlip crossbar scheduling (McKeown [31]).

The evaluated switches arbitrate with iSlip: every output round-robins
over requesting inputs (grant), every input round-robins over granting
outputs (accept), and the handshake iterates.  Per [12] this gives fair
service of the input ports sharing a hot output — the property the
parking-lot analysis of §IV-C rests on.

**Granularity note.**  Classic iSlip advances a *pointer* one past the
port served, once per cell slot.  At packet granularity in an
event-driven simulation, pointer-RR exhibits *pointer capture*: a
periodic interleaving flow can reset an output's pointer before every
contested slot, permanently starving one input — behaviour a
cell-slotted switch does not show over time because pointer updates and
slots are much finer than packet service times.  The default selection
rule here is therefore **least-recently-granted** (LRG) round-robin:
each output serves the requesting input granted longest ago (and each
input accepts the output it least recently used).  LRG is the
long-run-fair fixed point pointer-RR approximates, and reproduces the
inter-port fairness of the paper's cycle-level iSlip.  The classic
pointer rule is kept as ``mode="pointer"`` for the arbitration ablation
bench, which demonstrates the capture artifact.

The matcher keeps only its RR state between calls; the switch invokes
:meth:`ISlip.match` event-driven with the currently free ports and
pending requests.  A plain single-iteration greedy matcher
(:class:`RoundRobin`) is provided for differential tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set

__all__ = ["ISlip", "RoundRobin"]


class ISlip:
    """Iterative round-robin matcher for one switch.

    Parameters
    ----------
    num_inputs, num_outputs:
        Port counts.
    iterations:
        Handshake rounds per matching.  iSlip converges in at most
        ``min(N, M)`` iterations; 2 recover most of the gain.
    mode:
        ``"lrg"`` (default, see module docstring) or ``"pointer"``
        (classic iSlip pointers, first-iteration updates only).
    """

    def __init__(
        self,
        num_inputs: int,
        num_outputs: int,
        iterations: int = 2,
        mode: str = "lrg",
    ) -> None:
        if num_inputs < 1 or num_outputs < 1:
            raise ValueError("need at least one input and one output")
        if iterations < 1:
            raise ValueError("need at least one iteration")
        if mode not in ("lrg", "pointer"):
            raise ValueError(f"unknown arbiter mode {mode!r}")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.iterations = iterations
        self.mode = mode
        # pointer state (mode="pointer")
        self.grant_ptr = [0] * num_outputs
        self.accept_ptr = [0] * num_inputs
        # LRG state (mode="lrg"): last service stamp per pair, plus a
        # monotone clock.  Initial stamps favour low indices, like
        # zeroed pointers.
        self._clock = 1
        self._grant_stamp = [[-inp for inp in range(num_inputs)] for _ in range(num_outputs)]
        self._accept_stamp = [[-out for out in range(num_outputs)] for _ in range(num_inputs)]

    def match(self, requests: Mapping[int, Iterable[int]]) -> Dict[int, int]:
        """Compute a conflict-free input→output matching.

        ``requests`` maps each requesting input port to the output
        ports it has an eligible head packet for.  Busy ports must be
        left out by the caller.  Returns ``{input: output}`` — always a
        valid matching (injective both ways) over the requested pairs.
        """
        # output -> the inputs requesting it (inputs arrive one at a
        # time, so a repeated output is a repeat of the last entry)
        by_out: Dict[int, List[int]] = {}
        for inp, outs in requests.items():
            for out in outs:
                requesters = by_out.get(out)
                if requesters is None:
                    by_out[out] = [inp]
                elif requesters[-1] != inp:
                    requesters.append(inp)
        contested = sorted(out for out in by_out if 0 <= out < self.num_outputs)
        matched_in: Dict[int, int] = {}
        matched_out: Dict[int, int] = {}

        for iteration in range(self.iterations):
            grants: Dict[int, List[int]] = {}  # input -> outputs granting it
            for out in contested:
                if out in matched_out:
                    continue
                requesters = by_out[out]
                if matched_in:
                    requesters = [i for i in requesters if i not in matched_in]
                    if not requesters:
                        continue
                winner = self._pick_grant(out, requesters)
                granted = grants.get(winner)
                if granted is None:
                    grants[winner] = [out]
                else:
                    granted.append(out)
            if not grants:
                break
            for inp, outs in grants.items():
                choice = self._pick_accept(inp, outs)
                matched_in[inp] = choice
                matched_out[choice] = inp
                self._commit(inp, choice, iteration)
        return matched_in

    def match_single(self, inp: int, outs: Iterable[int]) -> int:
        """Fast path for rounds where exactly one input requests.

        With a single requester every requested output grants it on the
        first iteration, the input accepts one of them, and the second
        iteration has nothing left to do — so the full grant/accept
        bookkeeping of :meth:`match` collapses to one accept pick plus
        one state commit.  Returns the chosen output; state updates are
        exactly those ``match({inp: outs})`` would make (both pick
        rules are order-insensitive over the candidate set).
        """
        choice = self._pick_accept(inp, list(outs))
        self._commit(inp, choice, 0)
        return choice

    # ------------------------------------------------------------------
    # LRG picks: the stamps of one row are distinct (distinct initial
    # values, then the monotone clock), so the minimum is unique and
    # needs no index tie-break.
    def _pick_grant(self, out: int, requesters: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(requesters, self.grant_ptr[out])
        if len(requesters) == 1:
            return requesters[0]
        return min(requesters, key=self._grant_stamp[out].__getitem__)

    def _pick_accept(self, inp: int, outs: List[int]) -> int:
        if self.mode == "pointer":
            return _next_from(outs, self.accept_ptr[inp])
        if len(outs) == 1:
            return outs[0]
        return min(outs, key=self._accept_stamp[inp].__getitem__)

    def _commit(self, inp: int, out: int, iteration: int) -> None:
        if self.mode == "pointer":
            if iteration == 0:
                # Pointers move one position beyond the match, only for
                # first-iteration matches (the iSlip rule).
                self.grant_ptr[out] = (inp + 1) % self.num_inputs
                self.accept_ptr[inp] = (out + 1) % self.num_outputs
        else:
            self._grant_stamp[out][inp] = self._clock
            self._accept_stamp[inp][out] = self._clock
            self._clock += 1


class RoundRobin:
    """Single-pointer greedy matcher: outputs served in index order,
    each picking the next requesting input round-robin.

    Simpler than iSlip and less fair under asymmetric load; kept as a
    differential-testing and ablation baseline.
    """

    def __init__(self, num_inputs: int, num_outputs: int) -> None:
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.ptr = [0] * num_outputs

    def match(self, requests: Mapping[int, Iterable[int]]) -> Dict[int, int]:
        req = {i: set(outs) for i, outs in requests.items() if outs}
        matched_in: Dict[int, int] = {}
        taken: Set[int] = set()
        for out in range(self.num_outputs):
            requesters = [
                i for i, outs in req.items() if out in outs and i not in matched_in
            ]
            if not requesters or out in taken:
                continue
            winner = _next_from(requesters, self.ptr[out])
            matched_in[winner] = out
            taken.add(out)
            self.ptr[out] = (winner + 1) % self.num_inputs
        return matched_in


def _next_from(candidates: List[int], pointer: int) -> int:
    """Smallest candidate >= pointer, wrapping around (RR priority)."""
    best_wrap = None
    best = None
    for c in sorted(candidates):
        if c >= pointer:
            best = c
            break
        if best_wrap is None:
            best_wrap = c
    if best is not None:
        return best
    assert best_wrap is not None, "candidates must be non-empty"
    return best_wrap
