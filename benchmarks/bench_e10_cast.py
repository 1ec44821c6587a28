"""E10 -- Lemmas 1.5 / 1.6: upcast and downcast over forests.

Measures, for forests of varying depth d and input volumes In:
upcast rounds vs. the O(In/log n + d) pipelining bound and messages vs.
O(d * In/log n); downcast rounds vs. O(|M| + d) and messages vs.
O(d * |M|).  The transport engine is the one used inside both
simulation frameworks, so this is also their unit cost model.

Both casts take their items as ``(path, count, words)`` routes: the
upcast rows go through ``route_upcast``, and the downcast rows through
its closed form (``route_downcast``), checked equal to the per-packet
engine on the same messages built as packets.  With a
single root it gives the exact pipelining bound: the j-th message
leaves the root in round j and arrives depth(dest) rounds later, so
``down rounds <= |M| + d``.
"""

from conftest import run_once

from repro.analysis import print_table, record_extra_info
from repro.scenarios import get_scenario
from repro.primitives import (
    Packet,
    path_from_root,
    path_to_root,
    route_downcast,
    route_packets,
    route_upcast,
    tree_depths,
)


def _experiment():
    rows = []
    for n, items_per_node in ((32, 1), (32, 4), (64, 2)):
        for label in ("path", "random-tree"):
            g = get_scenario(label).graph(n, seed=n)
            # Root the tree at node 0 by BFS.
            from repro.baselines.reference import bfs_distances
            dist = bfs_distances(g, 0)
            parent = {0: None}
            for v in range(1, n):
                parent[v] = min(u for u in g.neighbors(v)
                                if dist[u] == dist[v] - 1)
            depth = max(tree_depths(parent).values())
            # items_per_node ("x", v, i) items at every non-root node:
            # 4 words with the destination.
            total_items = items_per_node * (n - 1)
            up = route_upcast(g, [(path_to_root(parent, v), items_per_node, 4)
                                  for v in range(1, n)])
            messages = [(v, ("y", v)) for v in range(1, n)]
            packets = [Packet(path=path_from_root(parent, v), payload=payload)
                       for v, payload in messages]
            _d, per_packet = route_packets(g, packets)
            down = route_downcast(g, [(path_from_root(parent, v), 1, 3)
                                      for v, _payload in messages])
            assert down == per_packet
            assert (list(down.edge_congestion.items())
                    == list(per_packet.edge_congestion.items()))
            rows.append((label, n, depth, total_items,
                         up.rounds, total_items + depth,
                         up.messages,
                         down.rounds, len(messages) + depth,
                         down.messages))
    return rows


def test_e10_upcast_downcast(benchmark):
    rows = run_once(benchmark, _experiment)
    table = print_table(
        ["tree", "n", "depth d", "items In", "up rounds", "In+d",
         "up msgs", "down rounds", "|M|+d", "down msgs"],
        rows, title="E10: upcast/downcast costs (Lemmas 1.5 / 1.6)")
    for row in rows:
        _label, _n, depth, items, up_rounds, up_bound, up_msgs, \
            down_rounds, down_bound, down_msgs = row
        # Pipelining bounds, with a small constant.
        assert up_rounds <= 2 * up_bound + 2
        assert down_rounds <= 2 * down_bound + 2
        # The closed form's exact bound for a single root.
        assert down_rounds <= down_bound
        # Message bounds: one message per item per tree hop.
        assert up_msgs <= items * depth
        assert down_msgs <= down_bound * depth
    record_extra_info(benchmark, table)
