"""Exact bipartite maximum matching in BCONGEST (Appendix A.1, after [3]).

The algorithm behind Corollary 2.8.  It builds a maximum matching by
repeated augmentation (Berge's theorem [6]): each *phase* searches for
augmenting paths with alternating-path broadcasts from free nodes, with
the phase-i round budget proportional to s/(s-i) -- the Hopcroft-Karp
short-augmenting-path bound [20] -- where s is an upper bound on the
maximum matching size (2x a maximal matching, computed by the driver).

Phase anatomy (all windows computed locally from n, s, and the round
number; every message is a broadcast carrying its addressee's id, which
is how point-to-point routing is expressed in BCONGEST):

1. **Explore** -- free nodes start alternating-path broadcasts
   ("ex", source, depth); a node adopts the first valid arrival (edge
   parity must alternate: unmatched out of even depths, matched out of
   odd) and rebroadcasts once.  Detections: (a) a *free* node receiving
   a valid even-depth exploration of another source is the far endpoint
   of an augmenting path; (b) an adopted node receiving a valid
   same-parity exploration of a different source closes an augmenting
   path across that edge.  Both trees being first-arrival trees makes
   the combined path simple, and bipartiteness makes the sources
   distinct (as the paper notes).
2. **Backprop** -- detected path labels (length, sources, meeting edge)
   travel up both adoption trees, each node forwarding only its minimum
   label (the paper's lexicographic filter), so every node broadcasts
   O(1) times per phase on this account.
3. **Resolve (confirm + commit)** -- the endpoint owning the smaller
   source id of its minimum candidate label routes a confirmation down
   the recorded label path and across the meeting edge; the far
   endpoint, if the label is also *its* minimum, answers with a commit
   that retraces the confirmation, and every node on the path flips its
   matched edge.  The globally minimal label is the minimum at both of
   its endpoints, so any detecting phase commits at least one
   augmentation; committed paths are vertex-disjoint because per phase
   every node joins exactly one adoption tree.

After the s budgeted multi-source phases, a *certification sweep* runs
one full-budget single-source phase per node (silent -- hence free in
both messages and simulated rounds -- when that node is already
matched).  Single-source alternating BFS is complete in bipartite
graphs, and a free vertex with no augmenting path now never gains one
later (the standard Hungarian-algorithm lemma), so a clean sweep
certifies maximality unconditionally.  The sweep is a robustness
addition over the paper's schedule (which relies on the per-phase
success analysis of [3]); it leaves the Õ(n²) broadcast complexity
intact and is usually near-silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.machine import Machine
from repro.congest.network import Inbox, NodeInfo

Label = Tuple[int, int, int, int, int]  # (length, srcA, srcB, eu, ev)


@dataclass
class _Window:
    """One phase of the schedule."""

    start: int          # first round (inclusive)
    explore_end: int
    backprop_end: int
    commit_end: int     # end of the combined confirm/commit window
    source: Optional[int]  # None = all free nodes; else single source


def build_schedule(n: int, s: int) -> List[_Window]:
    """The deterministic phase schedule shared by all nodes."""
    windows: List[_Window] = []
    t = 1
    full = 2 * n + 6

    def add(budget: int, source: Optional[int]) -> None:
        nonlocal t
        e1 = t + budget + 3
        e2 = e1 + budget + 6
        e3 = e2 + 4 * budget + 20
        windows.append(_Window(start=t, explore_end=e1, backprop_end=e2,
                               commit_end=e3, source=source))
        t = e3 + 1

    for i in range(s):
        budget = min(2 * math.ceil(s / max(1, s - i)) + 6, full)
        add(budget, None)
    for k in range(n):
        add(full, k)
    return windows


class BipartiteMatchingMachine(Machine):
    """One node of the augmenting-path algorithm.

    Input (shared): ``{"s": int}`` -- the matching-size upper bound.
    Output: the node's mate (or None).

    Wake rounds: besides mail, the node acts in every round while its
    outbox holds messages, at each window's ``start`` (phase reset) and
    ``backprop_end + 1`` (candidate freeze), and at ``end_round + 1``,
    where it halts.
    """

    def __init__(self, info: NodeInfo, s: Optional[int] = None):
        super().__init__(info)
        if s is None:
            s = (info.input or {})["s"]
        n = info.n
        assert n is not None
        self.schedule = build_schedule(n, s)
        self.end_round = self.schedule[-1].commit_end if self.schedule else 0
        self.mate: Optional[int] = None
        self.window_idx = 0
        self.broadcast_count = 0
        self._reset_phase()
        self.set_output(None)

    # ------------------------------------------------------------------
    def _reset_phase(self) -> None:
        self.depth: Optional[int] = None
        self.src: Optional[int] = None
        self.parent: Optional[int] = None
        self.is_endpoint = False       # free node acting as a path end
        self.down: Dict[Label, int] = {}
        self.cf_from: Dict[Label, int] = {}
        self.best_forwarded: Optional[Label] = None
        self.candidates: Dict[Label, int] = {}
        self.chosen: Optional[Label] = None
        self.frozen_min: Optional[Label] = None
        self.outbox: List[Tuple] = []

    def _window(self, rnd: int) -> Optional[_Window]:
        while (self.window_idx < len(self.schedule)
               and rnd > self.schedule[self.window_idx].commit_end):
            self.window_idx += 1
        if self.window_idx >= len(self.schedule):
            return None
        w = self.schedule[self.window_idx]
        return w if rnd >= w.start else None

    def wake_round(self, rnd: int) -> Optional[int]:
        if self.outbox or rnd >= self.end_round:
            return rnd + 1
        for w in self.schedule[self.window_idx:]:
            if w.start > rnd:
                return w.start
            if w.backprop_end >= rnd:
                return w.backprop_end + 1
        return self.end_round + 1

    def _edge_valid(self, depth: int, sender: int) -> bool:
        """May an exploration at ``depth`` legally cross (sender, self)?"""
        if depth % 2 == 0:
            return self.mate != sender
        return self.mate == sender

    # ------------------------------------------------------------------
    def on_round(self, rnd: int, inbox: Inbox):
        if self.halted:
            return None
        if rnd > self.end_round:
            self.set_output(self.mate)
            self.halted = True
            return None
        w = self._window(rnd)
        if w is None:
            return None
        if rnd == w.start:
            self._reset_phase()
            sources_ok = (w.source is None or w.source == self.info.id)
            if self.mate is None and sources_ok:
                self.is_endpoint = True
                self.depth = 0
                self.src = self.info.id
                return self._emit(("ex", self.info.id, 0))
            return None

        adoption: Optional[Tuple] = None
        if rnd <= w.explore_end:
            adoption = self._handle_explore(inbox)
        self._handle_backprop(inbox, rnd, w)
        if rnd > w.backprop_end:
            self._handle_resolve(inbox, rnd, w)
        if adoption is not None:
            return self._emit(adoption)
        if self.outbox:
            # Commits outrank confirms outrank backprops, so late-queued
            # backprop leftovers never delay a path resolution.
            priority = {"cm": 0, "cf": 1, "bp": 2}
            self.outbox.sort(key=lambda m: priority.get(m[0], 3))
            return self._emit(self.outbox.pop(0))
        return None

    def _emit(self, payload: Tuple) -> Tuple:
        self.broadcast_count += 1
        return payload

    # ------------------------------------------------------------------
    def _detect(self, label: Label, across: int) -> None:
        if label in self.down:
            return
        self.down[label] = across
        targets: List[int] = [across]
        if self.is_endpoint:
            self.candidates[label] = across
        elif self.parent is not None:
            targets.append(self.parent)
        self.outbox.append(("bp", label, tuple(targets)))

    def _handle_explore(self, inbox: Inbox) -> Optional[Tuple]:
        adopt: Optional[Tuple[int, int, int]] = None
        for sender, msg in inbox:
            if msg[0] != "ex":
                continue
            _t, src, depth = msg
            if not self._edge_valid(depth, sender):
                continue
            if self.mate is None:
                # Free node: path endpoint (detection rule a).
                if depth % 2 != 0:
                    continue
                if self.is_endpoint and src == self.src:
                    continue
                if not self.is_endpoint:
                    self.is_endpoint = True
                    self.src = self.info.id
                    self.depth = 0
                label = self._label_a(depth, src, sender)
                self._detect(label, sender)
                continue
            if self.depth is None:
                if adopt is None or (depth, src, sender) < adopt:
                    adopt = (depth, src, sender)
            elif src != self.src and depth % 2 == self.depth % 2:
                # Detection rule (b): same-parity cross-tree arrival.
                label = self._label_b(depth, src, sender)
                self._detect(label, sender)
        if adopt is not None and self.depth is None:
            depth, src, sender = adopt
            self.depth = depth + 1
            self.src = src
            self.parent = sender
            return ("ex", src, self.depth)
        return None

    def _label_a(self, sender_depth: int, src_other: int,
                 sender: int) -> Label:
        length = sender_depth + 1
        a, b = sorted((src_other, self.info.id))
        u, v = sorted((sender, self.info.id))
        return (length, a, b, u, v)

    def _label_b(self, sender_depth: int, src_other: int,
                 sender: int) -> Label:
        assert self.depth is not None and self.src is not None
        length = sender_depth + self.depth + 1
        a, b = sorted((src_other, self.src))
        u, v = sorted((sender, self.info.id))
        return (length, a, b, u, v)

    def _handle_backprop(self, inbox: Inbox, rnd: int, w: _Window) -> None:
        for sender, msg in inbox:
            if msg[0] != "bp":
                continue
            _t, label, targets = msg
            label = tuple(label)
            if self.info.id not in targets:
                continue
            if label in self.down:
                continue
            self.down[label] = sender
            if self.is_endpoint:
                self.candidates[label] = sender
            elif (self.best_forwarded is None
                    or label < self.best_forwarded):
                self.best_forwarded = label
                if self.parent is not None:
                    self.outbox.append(("bp", label, (self.parent,)))

    def _handle_resolve(self, inbox: Inbox, rnd: int, w: _Window) -> None:
        # Confirm initiation: label endpoints are identified by their
        # source ids (label = (len, a, b, ...) with a < b); the endpoint
        # whose id equals a initiates, the other answers.  Candidate
        # sets are frozen here: backprop messages still in flight after
        # this round must not change anyone's choice.
        if rnd == w.backprop_end + 1:
            if self.is_endpoint and self.mate is None and self.candidates:
                self.frozen_min = min(self.candidates)
                if self.frozen_min[1] == self.info.id:
                    self.chosen = self.frozen_min
                    self.outbox.append(
                        ("cf", self.frozen_min, self.down[self.frozen_min]))
        for sender, msg in inbox:
            if msg[0] == "cf":
                _t, label, target = msg
                label = tuple(label)
                if target != self.info.id:
                    continue
                if label in self.cf_from:
                    continue
                self.cf_from[label] = sender
                down = self.down.get(label)
                if down is not None and down != sender:
                    self.outbox.append(("cf", label, down))
                    continue
                if self.is_endpoint:
                    if (self.mate is None and self.chosen is None
                            and self.frozen_min == label):
                        self.chosen = label
                        self.mate = sender
                        self.set_output(self.mate)
                        self.outbox.append(("cm", label, sender))
                    continue
                if self.parent is not None:
                    self.outbox.append(("cf", label, self.parent))
                continue
            if msg[0] != "cm":
                continue
            _t, label, target = msg
            label = tuple(label)
            if target != self.info.id:
                continue
            back = self.cf_from.get(label)
            if back is None:
                # Originating endpoint f.
                if self.chosen == label and self.mate is None:
                    self.mate = sender
                    self.set_output(self.mate)
                continue
            # Internal path node: flip across the previously-unmatched
            # path edge (endpoints are free, internals are matched to
            # exactly one of their two path neighbors).
            self.mate = sender if self.mate == back else back
            self.set_output(self.mate)
            if back != sender:
                self.outbox.append(("cm", label, back))
