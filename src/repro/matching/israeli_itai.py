"""Randomized maximal matching in BCONGEST (after Israeli-Itai [23]).

Used by the maximum-matching application's preprocessing (Appendix A.1):
a maximal matching M̂ gives the upper bound s = 2|M̂| on the maximum
matching size, which controls the per-phase round budgets.

Protocol (three rounds per phase, proposal style):

1. every unmatched node with unmatched neighbors picks one uniformly at
   random and broadcasts a proposal naming it (BCONGEST-legal: all
   neighbors hear it, only the named target cares);
2. every proposed-to node accepts the smallest proposer (a node that
   itself proposed may still accept -- symmetric-breaking as in [23]),
   broadcasting the acceptance;
3. proposer/acceptor pairs agree -- a proposal (u -> v) matched by an
   acceptance (v -> u) marries u and v -- and the newly-matched nodes
   broadcast "matched", letting neighbors prune their candidate lists.

Each phase removes a constant fraction of the candidate edges in
expectation, so O(log n) phases suffice w.h.p.; each node broadcasts
O(1) times per phase, so the broadcast complexity is O(n log n).
Maximality and validity are checked in tests against
:func:`repro.baselines.reference.is_maximal_matching`.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.congest.machine import Machine
from repro.congest.network import Inbox, NodeInfo


class IsraeliItaiMachine(Machine):
    """Output: the matched neighbor's id, or None if unmatched at the end."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        self.candidates: Set[int] = set(info.neighbors)
        self.mate: Optional[int] = None
        self.proposal: Optional[int] = None
        self.accepted: Optional[int] = None

    def on_round(self, rnd: int, inbox: Inbox):
        if self.halted:
            return None
        stage = (rnd - 1) % 3
        if stage == 0:
            # "matched" announcements from the previous phase arrive now.
            for src, msg in inbox:
                if msg[0] == "matched":
                    self.candidates.discard(src)
            if self.mate is not None:
                self.halted = True
                return None
            if not self.candidates:
                self.set_output(None)
                self.halted = True
                return None
            # Coin flip splits the phase into proposers and acceptors,
            # which keeps the propose/accept agreement consistent.
            self.proposal = None
            self.accepted = None
            if self.rng.random() < 0.5:
                self.proposal = sorted(self.candidates)[
                    self.rng.randrange(len(self.candidates))]
                return ("propose", self.proposal)
            return None
        if stage == 1:
            if self.proposal is not None:
                return None  # proposers do not accept
            proposers = sorted(src for src, msg in inbox
                               if msg[0] == "propose"
                               and msg[1] == self.info.id
                               and src in self.candidates)
            if proposers:
                self.accepted = proposers[0]
                return ("accept", self.accepted)
            return None
        # stage == 2: marry on propose/accept agreement.
        for src, msg in inbox:
            if (msg[0] == "accept" and msg[1] == self.info.id
                    and src == self.proposal and self.mate is None):
                self.mate = src
        if self.accepted is not None and self.mate is None:
            # The acceptor's chosen proposer marries it symmetrically
            # when it sees the acceptance, so this is safe.
            self.mate = self.accepted
        if self.mate is not None:
            self.set_output(self.mate)
            return ("matched",)
        return None


def matching_from_outputs(outputs) -> Set[Tuple[int, int]]:
    """Cross-validated edge set from per-node mate outputs."""
    edges: Set[Tuple[int, int]] = set()
    for v, mate in outputs.items():
        if mate is None:
            continue
        if outputs.get(mate) != v:
            raise AssertionError(
                f"inconsistent matching: {v} -> {mate} -> {outputs.get(mate)}")
        edges.add((min(v, mate), max(v, mate)))
    return edges
