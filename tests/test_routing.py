"""Route search against the breadth-first search it replaced.

`seed_route` is the earlier per-send search, kept verbatim apart from
taking its neighbor lists as an argument (a node without links may be
missing from them): it walks each frontier node's sorted neighbor list
and stops when it first meets the destination.
`world.shortest_path` must return exactly its path, and the nodes strictly
between the ends of that path, for every ordered node pair of generated
graphs, connected or not, and every `sent` record of a generated run must
carry that path. `smallest_node_path` checks the documented rule itself:
fewest hops, then the smallest sequence of node ids.

The Hypothesis runs are derandomized so the suite gives the same result
on every run.
"""

from __future__ import annotations

import datetime as dt

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import by_kind, run, worlds
from smartbizsim.scenario import LinkSpec, NodeSpec, ScenarioConfig
from smartbizsim.world import shortest_path

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)
WORLD_SETTINGS = settings(SETTINGS, max_examples=60)  # each builds a world


# -- oracles -------------------------------------------------------------------


def seed_neighbor_lists(links) -> dict[str, list[tuple[str, str]]]:
    """node -> sorted [(neighbor, link id)], as the earlier world built it."""
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for link in links:
        adjacency.setdefault(link.a, []).append((link.b, link.id))
        adjacency.setdefault(link.b, []).append((link.a, link.id))
    for neighbors in adjacency.values():
        neighbors.sort()
    return adjacency


def seed_route(adjacency, src, dst):
    """Fewest-hop link path; neighbor order is sorted, so ties are stable."""
    if src == dst:
        return None
    frontier = [src]
    came_from: dict[str, tuple[str, str]] = {}
    seen = {src}
    while frontier:
        nxt = []
        for here in frontier:
            for neighbor, link_id in adjacency.get(here, ()):
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                came_from[neighbor] = (here, link_id)
                if neighbor == dst:
                    path = []
                    walk = dst
                    while walk != src:
                        prev, lid = came_from[walk]
                        path.append(lid)
                        walk = prev
                    return tuple(reversed(path))
                nxt.append(neighbor)
        frontier = nxt
    return None


def seed_routes_from(adjacency, src) -> dict[str, tuple[str, ...]]:
    """`seed_route(adjacency, src, dst)` for every dst at once.

    The same search run to exhaustion: it sets each `came_from` entry
    exactly as `seed_route` does before that stops, so each path is the
    same. One search per source keeps all pairs of a 600-leaf star cheap;
    `test_search_matches_the_seed_on_random_graphs` checks the two agree.
    """
    frontier = [src]
    came_from: dict[str, tuple[str, str]] = {}
    seen = {src}
    while frontier:
        nxt = []
        for here in frontier:
            for neighbor, link_id in adjacency.get(here, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    came_from[neighbor] = (here, link_id)
                    nxt.append(neighbor)
        frontier = nxt
    routes = {}
    for dst in came_from:
        path = []
        walk = dst
        while walk != src:
            walk, link_id = came_from[walk]
            path.append(link_id)
        routes[dst] = tuple(reversed(path))
    return routes


def smallest_node_path(links, src, dst) -> list[str] | None:
    """Among the fewest-hop paths, the smallest node-id sequence.

    Hop distances to dst first; then from src always step to the smallest
    neighbor one hop closer.
    """
    neighbors: dict[str, set[str]] = {}
    for link in links:
        neighbors.setdefault(link.a, set()).add(link.b)
        neighbors.setdefault(link.b, set()).add(link.a)
    distance = {dst: 0}
    frontier = [dst]
    while frontier:
        nxt = []
        for here in frontier:
            for neighbor in neighbors.get(here, ()):
                if neighbor not in distance:
                    distance[neighbor] = distance[here] + 1
                    nxt.append(neighbor)
        frontier = nxt
    if src == dst or src not in distance:
        return None
    path = [src]
    while path[-1] != dst:
        here = path[-1]
        path.append(min(n for n in neighbors[here] if distance.get(n) == distance[here] - 1))
    return path


def node_path(links_by_id, src, link_ids) -> list[str]:
    path = [src]
    for link_id in link_ids:
        link = links_by_id[link_id]
        path.append(link.b if link.a == path[-1] else link.a)
    return path


def seed_search(links_by_id, src, link_ids):
    """What `shortest_path` must return for the seed's link path: the links
    and the nodes strictly between src and dst, or None without a path."""
    if link_ids is None:
        return None
    return link_ids, tuple(node_path(links_by_id, src, link_ids)[1:-1])


# -- generated graphs --------------------------------------------------------------


@st.composite
def random_graphs(draw, max_nodes: int = 30):
    """(node ids, links): a simple graph, often in several components."""
    count = draw(st.integers(1, max_nodes))
    # ids whose sort order is unrelated to the order links are declared in
    nodes = draw(st.permutations([f"n{k:02d}" for k in range(count)]))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
        max_size=3 * count,
    ))
    links, joined = [], set()
    for i, j in pairs:
        if i != j and frozenset((i, j)) not in joined:
            joined.add(frozenset((i, j)))
            links.append(LinkSpec(a=nodes[i], b=nodes[j], latency_ms=1))
    return nodes, links


# -- properties --------------------------------------------------------------------


@SETTINGS
@given(random_graphs())
def test_search_matches_the_seed_on_random_graphs(graph):
    nodes, links = graph
    oracle = seed_neighbor_lists(links)
    index = {
        node: {neighbor: link_id for neighbor, link_id in oracle.get(node, ())}
        for node in nodes
    }
    links_by_id = {link.id: link for link in links}
    for src in nodes:
        tree = seed_routes_from(oracle, src)
        for dst in nodes:
            path = seed_route(oracle, src, dst)
            assert path == tree.get(dst)
            assert shortest_path(index, src, dst) == seed_search(links_by_id, src, path)
            nodes_on_path = None if path is None else node_path(links_by_id, src, path)
            assert nodes_on_path == smallest_node_path(links, src, dst)


@WORLD_SETTINGS
@given(worlds())
def test_search_matches_the_seed_on_generated_worlds(drawn):
    world, _ = run(*drawn, until=0)
    oracle = seed_neighbor_lists(world.links.values())
    for src in world._adjacency:
        tree = seed_routes_from(oracle, src)
        for dst in world._adjacency:
            route = seed_search(world.links, src, tree.get(dst))
            assert shortest_path(world._adjacency, src, dst) == route


@WORLD_SETTINGS
@given(worlds())
def test_every_sent_record_carries_the_seed_path(drawn):
    world, records = run(*drawn)
    oracle = seed_neighbor_lists(world.links.values())
    sent = by_kind(records, "sent")
    for record in sent:
        assert tuple(record["path"]) == seed_route(oracle, record["src"], record["dst"])
    fired = [r for r in by_kind(records, "reminder") if r["event"] == "fired"]
    assert len(sent) == len(world.scenario.commands) + len(fired)


def test_search_matches_the_seed_on_a_star_with_spares():
    devices = [f"dev-{k:04d}" for k in range(300)]
    scenario = ScenarioConfig(
        epoch=dt.date(2024, 1, 1),
        horizon_s=86_400,
        seed=1,
        nodes=tuple(NodeSpec(id=d, kind="SmartDevice", site="Truck") for d in devices)
        + (NodeSpec(id="cloud", kind="CloudService"),),
        links=tuple(LinkSpec(a=d, b="cloud", latency_ms=20 + k % 100)
                    for k, d in enumerate(devices)),
    )
    world, _ = run(scenario, {"S17"}, until=0)
    assert len(world.links) == 300
    assert set(world._adjacency) == {*devices, "cloud"}  # spares stand apart
    oracle = seed_neighbor_lists(world.links.values())
    for src in world._adjacency:
        tree = seed_routes_from(oracle, src)
        for dst in world._adjacency:
            route = seed_search(world.links, src, tree.get(dst))
            assert shortest_path(world._adjacency, src, dst) == route
