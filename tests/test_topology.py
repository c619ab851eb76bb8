import pytest

from ebsim.core import avg_phase_difference
from ebsim.protocol import ProtocolConfig
from ebsim.sim import Engine
from ebsim.topology import (Topology, TopologyError, load_topology,
                            make_complete, make_random_geometric,
                            make_regular_grid)


def is_connected(topo):
    # breadth-first search from the lowest id reaches every node
    start = topo.node_ids[0]
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [v for u in frontier for v in topo.adjacency[u] if v not in seen]
        seen.update(frontier)
    return len(seen) == topo.n


def test_torus_5x5():
    topo = make_regular_grid(5, 5, wraparound=True)
    assert topo.n == 25
    assert all(len(topo.adjacency[i]) == 4 for i in topo.node_ids)
    assert is_connected(topo)


def test_neighbour_table_leaves_out_isolated_nodes():
    # the sampler averages over the linked nodes in id order, each with its
    # sorted neighbours, and warns once that it left the isolated node out
    topo = Topology({0: {2, 1}, 1: {0}, 2: {0}, 3: set()})
    cfg = ProtocolConfig(period_t=1000, epsilon=0.05, sigma=0.01, s_th=80.0)
    eng = Engine(topo, cfg)
    for now in (1000, 2000):
        phases = {nid: eng.nodes[nid].phase_at(now) for nid in (0, 1, 2)}
        eng._handle_sample(now, 0, 0)
        assert eng.series[-1][1:3] == avg_phase_difference(
            phases, ((0, (1, 2)), (1, (0,)), (2, (0,))))
    assert eng.warnings == ["isolated nodes excluded from phase metrics"]


def test_open_grid_2x2():
    topo = make_regular_grid(2, 2, wraparound=False)
    assert topo.n == 4
    assert all(len(topo.adjacency[i]) == 2 for i in topo.node_ids)


def test_torus_3x3_degree_histogram():
    topo = make_regular_grid(3, 3, wraparound=True)
    hist = {}
    for neigh in topo.adjacency.values():
        hist[len(neigh)] = hist.get(len(neigh), 0) + 1
    assert hist == {4: 9}


def test_grid_too_small():
    with pytest.raises(TopologyError):
        make_regular_grid(1, 5, wraparound=False)


def test_complete():
    topo = make_complete(3)
    assert all(len(topo.adjacency[i]) == 2 for i in topo.node_ids)


def test_load_topology_path_graph(tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n")
    topo = load_topology(str(p))
    assert topo.node_ids == [0, 1, 2]
    assert topo.adjacency[1] == {0, 2}
    assert len(topo.adjacency[0]) == 1


def test_load_topology_nodes_directive(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("nodes 4\n0 1\n# comment\n2 3\n")
    topo = load_topology(str(p))
    assert topo.n == 4


def test_load_topology_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0\n")
    with pytest.raises(TopologyError):
        load_topology(str(p))
    p.write_text("nodes 2\n0 5\n")
    with pytest.raises(TopologyError):
        load_topology(str(p))
    p.write_text("")
    with pytest.raises(TopologyError):
        load_topology(str(p))


@pytest.mark.parametrize("text,message", [
    ("0 1\nnodes 3\n", "2: 'nodes' directive must precede edges"),
    ("nodes three\n", "1: malformed 'nodes' directive"),
    ("nodes \u00b2\n", "1: malformed 'nodes' directive"),  # a digit int() cannot read
    ("0 1 2\n", "1: expected 'u v', got '0 1 2'"),
    ("0 x\n", "1: node ids must be integers"),
    ("0 -1\n", "1: node ids must be non-negative"),
    # more digits than int() converts (sys.get_int_max_str_digits)
    (f"nodes {'9' * 5000}\n", "1: malformed 'nodes' directive"),
    (f"0 {'9' * 5000}\n", "1: node ids must be integers"),
], ids=["nodes_after_edge", "nodes_malformed", "nodes_superscript", "not_a_pair",
     "not_an_integer", "negative", "nodes_too_long", "id_too_long"])
def test_load_topology_names_the_bad_line(tmp_path, text, message):
    p = tmp_path / "bad.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(TopologyError) as err:
        load_topology(str(p))
    assert str(err.value) == f"{p}:{message}"


def test_generators_refuse_an_empty_network():
    with pytest.raises(TopologyError, match="^need n >= 1$"):
        make_complete(0)
    with pytest.raises(TopologyError, match="^need n >= 1$"):
        make_random_geometric(0, 0.5, seed=1)


def test_random_geometric_deterministic():
    a = make_random_geometric(40, 0.3, seed=5)
    b = make_random_geometric(40, 0.3, seed=5)
    assert a.adjacency == b.adjacency


def test_random_geometric_testbed_analog():
    # 87 nodes tuned to an average degree of about 20
    topo = make_random_geometric(87, 0.320408, seed=7)
    assert is_connected(topo)
    assert abs(topo.average_degree - 20) < 0.5


def test_validation_rejects_asymmetry_and_loops():
    with pytest.raises(TopologyError):
        Topology({0: {1}, 1: set()})
    with pytest.raises(TopologyError):
        Topology({0: {0}})
    with pytest.raises(TopologyError):
        Topology({0: {7}})
    with pytest.raises(TopologyError):
        Topology({})
