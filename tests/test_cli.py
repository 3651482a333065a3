import hashlib
import json
from fractions import Fraction

import pytest

from exchnet import genmodels
from exchnet.cli import _HANDLERS, _build_parser, main
from exchnet.dependence import incidence_graph
from exchnet.genmodels import (
    MixingSpec,
    er_joint,
    er_mobius,
    marginal_beta_joint,
    parse_graphon_text,
)
from exchnet.graphs import format_edge_list, parse_edge_list
from exchnet.serialize import (
    depgraph_to_json,
    dump_json,
    joint_to_json,
    load_schema,
    mobius_to_json,
    validate_against_schema,
)


@pytest.fixture
def paw_file(tmp_path, paw):
    path = tmp_path / "paw.edges"
    path.write_text(format_edge_list(paw))
    return path


@pytest.fixture
def fast_battery(monkeypatch, paw_dissociated_fit, path4_dissociated_fit):
    """The battery with its two dissociated fits taken from the session's
    fits of the same networks, so a test can run it again cheaply."""
    from exchnet import battery
    from exchnet.graphs import LabeledNetwork

    fits = {
        battery.paw_network(): paw_dissociated_fit,
        LabeledNetwork.path(4): path4_dissociated_fit,
    }
    monkeypatch.setattr(battery, "dissociated_mle", fits.__getitem__)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestMle:
    def test_golden_rationals_in_output(self, capsys, paw_file):
        code, out = run_cli(capsys, "mle", str(paw_file))
        assert code == 0
        for text in ("2/3", "5/12", "1/3", "1/4", "1/6", "1/12"):
            assert f'"{text}"' in out

    def test_output_matches_schema(self, capsys, paw_file):
        _, out = run_cli(capsys, "mle", str(paw_file))
        obj = json.loads(out)
        assert validate_against_schema(obj, load_schema("zvector")) == []

    def test_float_mode(self, capsys, paw_file):
        code, out = run_cli(capsys, "mle", "--float", str(paw_file))
        obj = json.loads(out)
        values = {item["class"]: item["z"] for item in obj["z"]}
        assert values["1-2"] == pytest.approx(2 / 3)


class TestStats:
    def test_family_vectors(self, capsys, paw_file):
        code, out = run_cli(capsys, "stats", str(paw_file))
        assert code == 0
        obj = json.loads(out)
        assert obj["degree_distribution"] == [0, 1, 2, 1]
        assert obj["families"]["frank_strauss"]["values"] == [4, 5, 1, 1]
        assert obj["families"]["kneser"]["values"] == [4, 1]


class TestFitAndEval:
    def test_fit_edges_family(self, capsys, paw_file):
        code, out = run_cli(capsys, "fit", "edges", str(paw_file))
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "optimal"
        assert validate_against_schema(obj, load_schema("fitreport")) == []

    def test_fit_full_family_boundary(self, capsys, paw_file):
        _, out = run_cli(capsys, "fit", "full_exchangeable", str(paw_file))
        assert json.loads(out)["status"] == "boundary"

    def test_eval_uniform(self, capsys, tmp_path, paw_file):
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"nu": {}}))
        code, out = run_cli(
            capsys, "eval", "frank_strauss", str(nu), str(paw_file)
        )
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(1 / 64)


# stdout digests on one 6-node network, recorded with the per-pair sigma
# searches that the sigma table replaced: the table must not move a byte.
# The frank_strauss, full_exchangeable, se_star and sem fits are boundary
# fits, pinned since they report the fit on the facial set.  The fit digests
# were re-pinned when fit reports dropped "restarts_used", their only change.
SIX_NODE_EDGES = "n 6\n1 2\n1 3\n2 3\n2 4\n3 5\n4 5\n5 6\n"
SIX_NODE_NU = {
    "frank_strauss": {"star1": -0.5, "star2": 0.1, "triangle": 0.3},
    "edges": {"star1": 0.25},
}
SIX_NODE_DIGESTS = {
    ("stats",): "33ee4f55f39ad072149cb465fa38ce8ad3f91a7b2af3688df07effb76d3c595c",
    ("mle",): "fabbc75f443b2a2615904019bd9264fc4a0603b80c724dddaa5dc3a96e80ca73",
    ("fit", "edges"): "0e6a8935467df77cf01d4b2f11ee094a6fe81793518a7b99d7cd0a52df1b0c27",
    ("fit", "frank_strauss"): "95dfbef999d302825cd67d9d6ab36ab0fa19925b257ddb5d3b71434c4643d4a1",
    ("fit", "full_exchangeable"): "c70ca62f67f4b2ec3a504a120fa1ea8238f4038bde80c939a73dcf858e6a13b2",
    ("fit", "kneser"): "e520a3b54bf37e9ea48956a9b24068854c2447ed4ffd4dc1ac60d3f24eddf9bd",
    ("fit", "se_star"): "0b4f93fec9936a5f6e752d5af0d81caff4f535e2b50c5f2f80216716ebc05bc5",
    ("fit", "sem"): "699207673060cd5a9734629942fefd52bba5d4e5cf6ca90babc66bebe76f20a2",
    ("eval", "frank_strauss"): "d2da75380e5ce1ecb7089e88843949fee5f0937cfd3f3cd5d54cabc1f017cfb0",
    ("eval", "edges"): "2eb1287253d9d3704a9a205226e6f8ff0e5a3ad0108017ae26fc363943baf5ce",
}


@pytest.mark.parametrize(
    "command", sorted(SIX_NODE_DIGESTS), ids=lambda c: "-".join(c)
)
def test_six_node_output_bytes(capsys, tmp_path, command):
    net = tmp_path / "g6.edges"
    net.write_text(SIX_NODE_EDGES)
    argv = list(command)
    if command[0] == "eval":
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"nu": SIX_NODE_NU[command[1]]}))
        argv.append(str(nu))
    code, out = run_cli(capsys, *argv, str(net))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIX_NODE_DIGESTS[command]


class TestNetworksSmallerThanTheStatistics:
    """Statistic classes on more vertices than the network count 0."""

    def test_stats_at_three_and_one_nodes(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("n 3\n1 2\n2 3\n")
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        fams = json.loads(out)["families"]
        assert fams["se_star"]["values"] == [2, 1, 0]
        assert fams["frank_strauss"]["values"] == [2, 1, 0]
        assert fams["edges"]["values"] == [2]
        path.write_text("n 1\n")
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        fams = json.loads(out)["families"]
        assert fams["se_star"] == {"names": ["two_disjoint_edges"], "values": [0]}
        assert fams["frank_strauss"] == {"names": ["triangle"], "values": [0]}
        assert fams["edges"] == {"names": ["star1"], "values": [0]}

    @pytest.mark.parametrize("family", ["se_star", "frank_strauss"])
    def test_fit_at_three_nodes(self, capsys, tmp_path, family):
        path = tmp_path / "p3.edges"
        path.write_text("n 3\n1 2\n2 3\n")
        code, out = run_cli(capsys, "fit", family, str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "boundary"
        assert obj["z"]["1-2"] == pytest.approx(2 / 3)
        assert obj["z"]["1-3,2-3"] == pytest.approx(1 / 3)
        if family == "se_star":
            assert obj["nu"]["two_disjoint_edges"] == 0.0

    @pytest.mark.parametrize("family", ["se_star", "frank_strauss"])
    def test_fit_at_two_nodes(self, capsys, tmp_path, family):
        path = tmp_path / "k2.edges"
        path.write_text("n 2\n1 2\n")
        code, out = run_cli(capsys, "fit", family, str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "boundary"
        assert obj["z"] == {"1-2": 1.0, "EMPTY": 1.0}
        absent = "two_disjoint_edges" if family == "se_star" else "triangle"
        assert obj["nu"][absent] == 0.0

    @pytest.mark.parametrize("family", ["kneser", "full_exchangeable", "sem"])
    def test_fit_at_one_node(self, capsys, tmp_path, family):
        # no statistics: the one class has probability 1
        path = tmp_path / "k1.edges"
        path.write_text("n 1\n")
        code, out = run_cli(capsys, "fit", family, str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "optimal"
        assert obj["q"] == {"EMPTY": 1.0}
        assert obj["loglik"] == 0.0
        assert obj["nu"] == {}

    def test_eval_at_three_nodes(self, capsys, tmp_path):
        path = tmp_path / "p3.edges"
        path.write_text("n 3\n1 2\n2 3\n")
        nu = tmp_path / "nu.json"
        nu.write_text(json.dumps({"nu": {}}))
        code, out = run_cli(capsys, "eval", "se_star", str(nu), str(path))
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(1 / 8)


@pytest.mark.parametrize("command", ["mle", "stats"])
def test_eight_nodes_is_size_cap(capsys, tmp_path, command):
    # a sigma table at n = 8 would hold 12346^2 entries: refused before any
    # of the 8-node classes is enumerated
    from exchnet.graphs import LabeledNetwork, _class_lattice

    path = tmp_path / "path8.edges"
    path.write_text(format_edge_list(LabeledNetwork.path(8)))
    misses = _class_lattice.cache_info().misses
    code, out = run_cli(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert _class_lattice.cache_info().misses == misses


class TestMleDissociated:
    def test_report(self, capsys, paw_file):
        code, out = run_cli(capsys, "mle-dissociated", str(paw_file))
        assert code == 0
        obj = json.loads(out)
        assert validate_against_schema(obj, load_schema("fitreport")) == []
        assert obj["z"]["1-2"] == pytest.approx(0.5, abs=1e-6)

    def test_six_nodes_is_size_cap(self, capsys, tmp_path):
        from exchnet.graphs import LabeledNetwork

        path = tmp_path / "path6.edges"
        path.write_text(format_edge_list(LabeledNetwork.path(6)))
        code, out = run_cli(capsys, "mle-dissociated", str(path))
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("option", [["--restarts", "6"], ["--seed", "3"]])
    def test_removed_options_are_parse_errors(self, capsys, paw_file, option):
        code, out = run_cli(capsys, "mle-dissociated", str(paw_file), *option)
        assert (code, out) == (1, "")


class TestMarkovAndSkeleton:
    def test_markov_er_vs_empty(self, capsys, tmp_path):
        joint = tmp_path / "joint.json"
        joint.write_text(dump_json(joint_to_json(er_joint(4, Fraction(1, 3)))))
        dep = tmp_path / "dep.json"
        empty = incidence_graph(4)  # reuse shape, then blank the edges
        from exchnet.dependence import empty_dependence_graph

        dep.write_text(dump_json(depgraph_to_json(empty_dependence_graph(4))))
        code, out = run_cli(capsys, "markov", str(joint), str(dep))
        assert code == 0
        assert json.loads(out)["markov"] is True

    def test_markov_counterexample(self, capsys, tmp_path):
        jt = marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))
        joint = tmp_path / "joint.json"
        joint.write_text(dump_json(joint_to_json(jt)))
        dep = tmp_path / "dep.json"
        from exchnet.dependence import empty_dependence_graph

        dep.write_text(dump_json(depgraph_to_json(empty_dependence_graph(4))))
        code, out = run_cli(capsys, "markov", str(joint), str(dep))
        obj = json.loads(out)
        assert obj["markov"] is False
        assert obj["counterexample"] == {"A": ["1-2"], "B": ["1-3"], "S": []}

    @pytest.mark.parametrize("n", [8, 10**6])
    def test_dependence_graph_past_the_node_cap_is_size_cap(self, capsys, tmp_path, n):
        # refused before the per-dyad table is built, whatever n asks for
        joint = tmp_path / "joint.json"
        joint.write_text(dump_json(joint_to_json(er_joint(3, Fraction(1, 3)))))
        dep = tmp_path / "dep.json"
        dep.write_text(json.dumps({"n": n, "kind": "undirected", "edges": []}))
        code = main(["markov", str(joint), str(dep)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("size cap:")

    def test_skeleton_classification(self, capsys, tmp_path):
        jt = marginal_beta_joint(4, MixingSpec.two_point(-1.0, 1.5, 0.5))
        joint = tmp_path / "joint.json"
        joint.write_text(dump_json(joint_to_json(jt)))
        code, out = run_cli(capsys, "skeleton", str(joint))
        obj = json.loads(out)
        assert obj["classification"] == "incidence"
        assert validate_against_schema(obj, load_schema("depgraph")) == []

    def test_joint_json_matches_schema(self):
        obj = joint_to_json(er_joint(3, Fraction(1, 2)))
        assert validate_against_schema(obj, load_schema("joint")) == []


class TestExtend:
    def test_paw_mle_infeasible(self, capsys, tmp_path, paw):
        from exchnet.estimation import exch_mle

        zfile = tmp_path / "z.json"
        zfile.write_text(dump_json(mobius_to_json(exch_mle(paw))))
        code, out = run_cli(capsys, "extend", str(zfile), "--m", "5")
        assert code == 0
        obj = json.loads(out)
        assert obj["feasible"] is False
        assert validate_against_schema(obj, load_schema("extendreport")) == []

    def test_size_cap_exit_code(self, capsys, tmp_path, paw):
        from exchnet.estimation import exch_mle

        zfile = tmp_path / "z.json"
        zfile.write_text(dump_json(mobius_to_json(exch_mle(paw))))
        code, _ = run_cli(capsys, "extend", str(zfile), "--m", "9")
        assert code == 3

    @pytest.mark.parametrize("flags", [[], ["--dissociated"]])
    @pytest.mark.parametrize("m,want", [(3, 2), (8, 3), (9, 3)])
    def test_m_outside_n_to_seven(self, capsys, tmp_path, paw, flags, m, want):
        # m < n is an invalid parameter (exit 2), m > 7 a size cap (exit 3)
        from exchnet.estimation import exch_mle

        zfile = tmp_path / "z.json"
        zfile.write_text(dump_json(mobius_to_json(exch_mle(paw))))
        code, out = run_cli(capsys, "extend", str(zfile), "--m", str(m), *flags)
        assert (code, out) == (want, "")

    def test_input_flag_form(self, capsys, tmp_path, paw):
        from exchnet.estimation import exch_mle

        zfile = tmp_path / "z.json"
        zfile.write_text(dump_json(mobius_to_json(exch_mle(paw))))
        code, out = run_cli(
            capsys, "extend", "--input", str(zfile), "--m", "5"
        )
        assert code == 0
        assert json.loads(out)["feasible"] is False

    def test_dissociated_flag(self, capsys, tmp_path):
        from exchnet.genmodels import er_mobius

        zfile = tmp_path / "z.json"
        zfile.write_text(
            dump_json(mobius_to_json(er_mobius(4, Fraction(1, 3))))
        )
        code, out = run_cli(
            capsys, "extend", str(zfile), "--m", "5", "--dissociated"
        )
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_mixed_moments_give_float_certificates(self, capsys, tmp_path):
        # rational moments beside a float z of the empty class are read as
        # floats, so the LP and the independent-ties shortcut agree on mode
        zfile = tmp_path / "mixed.json"
        zfile.write_text(json.dumps(er_moments_doc("EMPTY", 1.0)))
        for flags in ([], ["--dissociated"]):
            code, out = run_cli(capsys, "extend", str(zfile), "--m", "6", *flags)
            assert code == 0
            q = json.loads(out)["certificate"]["q"]
            assert all(isinstance(v, float) for v in q.values()), flags

    @pytest.mark.parametrize("m", [2, 3])
    def test_dissociated_one_node_agrees_with_exact(self, capsys, tmp_path, m):
        edges = tmp_path / "one.edges"
        edges.write_text("n 1\n")
        zfile = tmp_path / "one.json"
        assert run_cli(capsys, "mle", str(edges), "--out", str(zfile))[0] == 0
        code, out = run_cli(capsys, "extend", str(zfile), "--m", str(m))
        assert code == 0
        exact = json.loads(out)
        code, out = run_cli(
            capsys, "extend", str(zfile), "--m", str(m), "--dissociated"
        )
        assert code == 0
        obj = json.loads(out)
        assert validate_against_schema(obj, load_schema("extendreport")) == []
        assert obj["feasible"] is exact["feasible"] is True
        assert obj["certificate"]["n"] == m


class TestSample:
    def test_byte_identical_reruns(self, capsys):
        argv = ["sample", "er", "--n", "4", "--p", "0.5", "--seed", "7", "--count", "2"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2
        assert out1.count("# sample") == 2

    def test_different_seeds_differ(self, capsys):
        _, out1 = run_cli(
            capsys, "sample", "er", "--n", "6", "--p", "0.5", "--seed", "1",
            "--count", "4",
        )
        _, out2 = run_cli(
            capsys, "sample", "er", "--n", "6", "--p", "0.5", "--seed", "2",
            "--count", "4",
        )
        assert out1 != out2

    def test_blocks_parse_as_networks(self, capsys):
        _, out = run_cli(
            capsys, "sample", "beta", "--beta", "0.5,0.0,-0.5", "--seed", "3",
            "--count", "3",
        )
        blocks = out.split("# sample")
        for block in blocks[1:]:
            body = "\n".join(block.splitlines()[1:])
            parse_edge_list(body)

    def test_graphon_and_marginal_beta_models(self, capsys):
        code, out = run_cli(
            capsys, "sample", "graphon", "--phi", "const:0.4", "--n", "4",
            "--seed", "5",
        )
        assert code == 0
        code, out = run_cli(
            capsys, "sample", "marginal-beta", "--n", "4", "--mixing",
            "two-point:-1.0,1.5,0.5", "--seed", "5",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "mixing, want",
        [
            (
                "point:0.3",
                ["1-2,1-4,1-5,2-4,2-5,3-4,3-5", "1-2,1-3,1-4,1-5,2-3,2-4,2-5,3-4"],
            ),
            (
                "gaussian:0.1,1.2",
                ["1-2,1-3,1-4,1-5,2-3,2-4,2-5,3-4,4-5", "1-3,1-4,2-3,2-4"],
            ),
        ],
        ids=["point", "gaussian"],
    )
    def test_point_and_gaussian_mixing_draws(self, capsys, mixing, want):
        code, out = run_cli(
            capsys, "sample", "marginal-beta", "--n", "5", "--mixing", mixing,
            "--seed", "5", "--count", "2",
        )
        assert code == 0
        blocks = [b.split("\n", 1)[1] for b in out.split("# sample ")[1:]]
        nets = [parse_edge_list(b) for b in blocks]
        got = [",".join(f"{i}-{j}" for i, j in x.sorted_edges()) for x in nets]
        assert got == want

    def test_unknown_mixing_kind_is_invalid_parameters(self, capsys):
        code, out = run_cli(
            capsys, "sample", "marginal-beta", "--n", "4", "--mixing", "beta:1,2",
            "--seed", "1",
        )
        assert (code, out) == (2, "")

    def test_past_the_node_cap_is_size_cap(self, capsys):
        n = str(genmodels.MAX_SAMPLE_NODES + 1)
        code = main(["sample", "er", "--n", n, "--p", "0.5", "--seed", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("size cap:")

    @pytest.mark.parametrize(
        "model, n, count, code",
        [("er", 1414, 2, 0), ("er", 1415, 2, 3), ("beta", 1414, 2, 0),
         ("beta", 1415, 2, 3), ("er", 1, 1999001, 3)],
    )
    def test_dyads_of_all_samples_bounded_by_one_at_the_node_cap(
        self, capsys, monkeypatch, model, n, count, code
    ):
        # 2 samples at n = 1415 hold more dyads than one at n = 2000, so
        # they are refused before the first draw (a sample on one node
        # counts as one dyad); draws are stubbed here
        import exchnet.cli as cli
        from exchnet.graphs import LabeledNetwork

        drawn = []

        def draw(*args):
            drawn.append(args)
            return LabeledNetwork.empty(1)

        monkeypatch.setattr(cli, "graphon_sample", draw)
        monkeypatch.setattr(cli, "beta_sample", draw)
        options = {
            "er": ["--n", str(n), "--p", "0.5"],
            "beta": ["--beta", ",".join(["0"] * n)],
        }[model]
        result = main(["sample", model, *options, "--seed", "1", "--count", str(count)])
        captured = capsys.readouterr()
        assert (result, len(drawn)) == (code, 0 if code else count)
        if code:
            assert captured.out == ""
            assert captured.err.startswith("size cap:")

    def test_missing_seed_is_parse_error(self, capsys):
        code = main(["sample", "er", "--n", "4", "--p", "0.5"])
        assert code == 1

    def test_negative_count_is_invalid_parameters(self, capsys):
        code, out = run_cli(
            capsys, "sample", "er", "--n", "4", "--p", "0.5", "--seed", "1",
            "--count", "-1",
        )
        assert (code, out) == (2, "")

    def test_arguments_checked_before_any_draw(self, capsys):
        code, out = run_cli(capsys, "sample", "er", "--seed", "1", "--count", "0")
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize(
        "model",
        [
            ["er", "--p", "0.5"],
            ["marginal-beta", "--mixing", "point:0.1"],
            ["graphon", "--phi", "const:0.5"],
        ],
        ids=lambda m: m[0],
    )
    def test_fewer_than_one_node_is_invalid_parameters(self, capsys, model, n):
        code, out = run_cli(capsys, "sample", *model, "--n", n, "--seed", "1")
        assert (code, out) == (2, "")

    # each model's options, and a value for every option
    MODELS = {
        "er": ["--n", "--p"],
        "beta": ["--beta"],
        "marginal-beta": ["--n", "--mixing"],
        "graphon": ["--n", "--phi"],
    }
    VALUES = {
        "--n": "4", "--p": "0.5", "--beta": "0.1,0.2", "--mixing": "point:0.1",
        "--phi": "const:0.5",
    }

    @pytest.mark.parametrize("option", VALUES)
    @pytest.mark.parametrize("model", MODELS)
    def test_missing_or_unread_option_is_invalid_parameters(
        self, capsys, model, option
    ):
        # drop the option if the model reads it, add it if not
        given = set(self.MODELS[model]) ^ {option}
        argv = ["sample", model, "--seed", "1"]
        for name in given:
            argv += [name, self.VALUES[name]]
        assert run_cli(capsys, *argv) == (2, "")

    def test_grid_file_parsed_once_per_request(self, capsys, tmp_path, monkeypatch):
        import exchnet.cli as cli

        grid = tmp_path / "phi.grid"
        grid.write_text("3\n0.1 0.4 0.7\n0.4 0.5 0.2\n0.7 0.2 0.9\n")
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse_graphon_text(text)

        monkeypatch.setattr(cli, "parse_graphon_text", counting_parse)
        code, out = run_cli(
            capsys, "sample", "graphon", "--phi", str(grid), "--n", "4",
            "--seed", "3", "--count", "5",
        )
        assert code == 0
        assert out.count("# sample") == 5
        assert len(calls) == 1


class TestGraphonZ:
    def test_quadrature(self, capsys):
        code, out = run_cli(capsys, "graphon-z", "const:0.3", "1-2,2-3")
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(0.09)

    def test_empty_class_moment_is_one(self, capsys):
        code, out = run_cli(capsys, "graphon-z", "const:0.3", "EMPTY")
        assert code == 0
        obj = json.loads(out)
        assert (obj["class"], obj["value"]) == ("EMPTY", 1.0)

    def test_mc_requires_seed(self, capsys):
        code, _ = run_cli(
            capsys, "graphon-z", "const:0.3", "1-2", "--method", "mc"
        )
        assert code == 2

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "phi.grid"
        grid.write_text("2\n0.2 0.4\n0.4 0.6\n")
        code, out = run_cli(capsys, "graphon-z", str(grid), "1-2")
        assert code == 0
        assert 0.2 <= json.loads(out)["value"] <= 0.6

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_mc_sample_count_below_one(self, capsys, samples):
        code, out = run_cli(
            capsys, "graphon-z", "const:0.3", "1-2", "--method", "mc",
            "--samples", samples, "--seed", "1",
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "option",
        [["--method", "mc", "--seed", "1", "--r", "8"],
         ["--samples", "50"],
         ["--seed", "1"]],
        ids=["mc-r", "quadrature-samples", "quadrature-seed"],
    )
    def test_option_the_method_does_not_read(self, capsys, option):
        code, out = run_cli(capsys, "graphon-z", "const:0.3", "1-2", *option)
        assert (code, out) == (2, "")

    @pytest.mark.parametrize(
        "cls, r",
        [("1-2,1-3,1-4,1-5,2-3,2-4,2-5,3-4,3-5,4-5", "512"), ("1-2", "8192")],
        ids=["k5-elimination", "grid"],
    )
    def test_resolution_past_the_memory_cap_is_size_cap(self, capsys, cls, r):
        code, out = run_cli(
            capsys, "graphon-z", "product:logistic:0.0,1.0", cls, "--r", r
        )
        assert (code, out) == (3, "")

    def test_negative_sigma_is_invalid_parameters(self, capsys):
        code, out = run_cli(
            capsys, "graphon-z", "product:logistic:0.0,-1.0", "1-2"
        )
        assert (code, out) == (2, "")

    def test_rewritten_grid_file_is_read_again(self, capsys, tmp_path):
        grid = tmp_path / "phi.grid"
        grid.write_text("2\n0.2 0.4\n0.4 0.6\n")
        _, before = run_cli(capsys, "graphon-z", str(grid), "1-2")
        grid.write_text("2\n0.7 0.1\n0.1 0.3\n")
        _, after = run_cli(capsys, "graphon-z", str(grid), "1-2")
        _, fresh = run_cli(capsys, "graphon-z", str(grid), "1-2")
        assert json.loads(before)["value"] != json.loads(after)["value"]
        assert after == fresh


class TestCollisions:
    def test_five_nodes(self, capsys):
        code, out = run_cli(capsys, "collisions", "--n", "5")
        assert code == 0
        obj = json.loads(out)
        assert len(obj["groups"]) == 3

    def test_four_nodes_empty(self, capsys):
        _, out = run_cli(capsys, "collisions", "--n", "4")
        assert json.loads(out)["groups"] == []

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_fewer_than_one_node_is_invalid_parameters(self, capsys, n):
        code, out = run_cli(capsys, "collisions", "--n", n)
        assert (code, out) == (2, "")


def test_reused_parser_answers_as_a_fresh_one(capsys, paw_file):
    argv_runs = [
        ["mle", str(paw_file)],
        ["frobnicate"],
        ["sample", "er", "--n", "4", "--p", "0.5"],
        ["--help"],
        ["graphon-z", "--help"],
        ["extend", str(paw_file), "--m", "9"],
        ["mle", "--float", str(paw_file)],
        ["collisions", "--n", "9"],
        ["graphon-z", "const:0.3", "1-2", "--method", "mc", "--samples", "0",
         "--seed", "1"],
        ["sample", "er", "--n", "4", "--p", "0.5", "--seed", "7", "--count", "2"],
        ["graphon-z", "const:0.3", "1-2,2-3"],
        ["fit", "bogus", str(paw_file)],
        ["stats", str(paw_file)],
    ]
    reused = [run_cli(capsys, *argv) for argv in argv_runs]
    fresh = []
    for argv in argv_runs:
        _build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 1, 1, 0, 0, 2, 0, 3, 2, 0, 0, 1, 0]


def er_moments_doc(cls, z):
    """ER(4, 1/3) class moments as a document, with ``z`` for class ``cls``."""
    doc = mobius_to_json(er_mobius(4, Fraction(1, 3)))
    for item in doc["z"]:
        if item["class"] == cls:
            item["z"] = z
    return doc


def er_joint_doc(first):
    """The ER(3, 1/3) joint table as a document, its first entry ``first``."""
    doc = joint_to_json(er_joint(3, Fraction(1, 3)))
    doc["probs"][0] = first
    return doc


def reader_argv(reader, doc, tmp_path, paw_file):
    """The command line that reads ``doc`` as the input file ``reader`` names."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    joint = tmp_path / "joint.json"
    joint.write_text(dump_json(joint_to_json(er_joint(3, Fraction(1, 3)))))
    return {
        "extend": ["extend", str(bad), "--m", "5"],
        "eval": ["eval", "edges", str(bad), str(paw_file)],
        "markov-joint": ["markov", str(bad), str(bad)],
        "markov-depgraph": ["markov", str(joint), str(bad)],
        "skeleton": ["skeleton", str(bad)],
    }[reader]


class TestExitCodes:
    def test_unknown_command_is_parse_error(self):
        assert main(["frobnicate"]) == 1

    def test_bad_edge_list_is_invalid_parameters(self, capsys, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("n 3\n1 9\n")
        assert main(["mle", str(bad)]) == 2

    @pytest.mark.parametrize(
        "reader, doc",
        [
            ("extend", {"n": 4}),
            ("extend", [1, 2]),
            ("eval", {}),
            ("eval", {"nu": {"star1": None}}),
            ("markov-joint", {}),
            ("markov-depgraph", {"n": 3, "kind": "undirected"}),
            (
                "markov-depgraph",
                {"n": 3, "kind": "undirected", "edges": [["1-2", "1-9"]]},
            ),
            ("skeleton", []),
            # non-finite values and zero denominators
            ("extend", er_moments_doc("EMPTY", float("nan"))),
            ("extend", er_moments_doc("1-2", float("inf"))),
            ("extend", er_moments_doc("EMPTY", "1/0")),
            ("skeleton", er_joint_doc(float("nan"))),
            ("skeleton", er_joint_doc("1/0")),
            ("markov-joint", er_joint_doc("1/0")),
            ("eval", {"nu": [float("nan")]}),
            ("eval", {"nu": [float("inf")]}),
            # integers beyond float range
            ("eval", {"nu": [10**400]}),
            ("eval", {"nu": {"star1": -(10**400)}}),
            # JSON booleans are not numbers
            ("eval", {"nu": [True]}),
            ("eval", {"nu": {"star1": False}}),
        ],
    )
    def test_malformed_json_is_invalid_parameters(
        self, capsys, tmp_path, paw_file, reader, doc
    ):
        code = main(reader_argv(reader, doc, tmp_path, paw_file))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("invalid parameters:")

    @pytest.mark.parametrize(
        "reader, doc, message",
        [
            ("extend", {**er_moments_doc("1-2", "1/3"), "n": 0}, "needs n >= 1, got 0"),
            ("extend", {**er_moments_doc("1-2", "1/3"), "n": -3}, "needs n >= 1, got -3"),
            ("skeleton", {**er_joint_doc("8/27"), "n": -2}, "needs n >= 0, got -2"),
            (
                "extend",
                {"n": 4, "z": er_moments_doc("1-2", "1/3")["z"] + [{"class": "2-3", "z": "1/2"}]},
                "class 1-2 given twice, again as '2-3'",
            ),
            ("markov-depgraph", {"n": 3, "kind": "directed", "edges": []}, "'directed' not in enum"),
            (
                "skeleton",
                {"n": 3, "probs": ["-1/27", "13/27"] + er_joint_doc("8/27")["probs"][2:]},
                "negative probability",
            ),
            ("extend", er_moments_doc("EMPTY", "1/2"), "z of the empty class is 1/2, not 1"),
            # the Gibbs exponent overflows, so the log partition is inf - inf
            ("eval", {"nu": {"star1": 1e308}}, "log partition is nan"),
            (
                "skeleton",
                {**er_joint_doc("8/27"), "probs": er_joint_doc("8/27")["probs"][:7]},
                "need 8 entries for n=3, got 7",
            ),
            ("eval", {"nu": [0.1, 0.2]}, "need 1 values, got 2"),
            (
                "markov-depgraph",
                {"n": 3, "kind": "undirected", "edges": [["1-2", "2-1"]]},
                "self-adjacency at dyad 1-2",
            ),
        ],
        ids=["n0", "n-3", "joint-n-2", "class-twice", "kind-enum", "negative-entry",
             "empty-z", "eval-overflow", "probs-length", "nu-length", "dyad-twice"],
    )
    def test_refusal_names_the_fault(
        self, capsys, tmp_path, paw_file, reader, doc, message
    ):
        code = main(reader_argv(reader, doc, tmp_path, paw_file))
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("invalid parameters:")
        assert message in captured.err

    @pytest.mark.parametrize("star1", [800, -1e308])
    def test_eval_that_underflows_answers_zero(self, capsys, tmp_path, paw_file, star1):
        argv = reader_argv("eval", {"nu": {"star1": star1}}, tmp_path, paw_file)
        code, out = run_cli(capsys, *argv)
        assert (code, json.loads(out)) == (0, {"probability": 0.0})

    def test_eval_that_underflows_writes_nothing_to_stderr(self, tmp_path, paw_file):
        # numpy reports an overflow on stderr, which capsys does not see in
        # the test's own process
        import os
        import subprocess
        import sys
        from pathlib import Path

        import exchnet

        argv = reader_argv("eval", {"nu": {"star1": -1e308}}, tmp_path, paw_file)
        src = str(Path(exchnet.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "exchnet.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout) == {"probability": 0.0}

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["markov", "{dir}/joint5.json", "{dir}/dep5.json"], 3,
             "global Markov check supports at most 6 dyads"),
            (["skeleton", "{dir}/joint5.json"], 3,
             "skeleton search supports at most 6 dyads"),
            (["skeleton", "{dir}/joint7.json"], 3, "supports n <= 6, got 7"),
            (["fit", "edges", "{dir}/path7.edges"], 3, "ergm fitting supports n <= 6"),
            (["eval", "edges", "{dir}/nu.json", "{dir}/path7.edges"], 3,
             "ergm evaluation supports n <= 6"),
            (["graphon-z", "const:0.3", "1-2,2-3,3-4,4-5,5-6,6-7"], 3,
             "kernel moments support classes on <= 6 vertices"),
            (["sample", "beta", "--beta", "nan,0", "--seed", "1"], 2,
             "propensities must be finite"),
            (["sample", "marginal-beta", "--n", "4", "--mixing", "two-point:0,1,2",
              "--seed", "1"], 2, "mixture weight must be in [0, 1]"),
            (["sample", "marginal-beta", "--n", "4", "--mixing", "gaussian:0,-1",
              "--seed", "1"], 2, "sigma must be nonnegative"),
            (["graphon-z", "const:1.5", "1-2"], 2, "constant level must be in [0, 1]"),
            (["graphon-z", "product:foo", "1-2"], 2, "unknown kernel spec 'product:foo'"),
            (["graphon-z", "{dir}/high.grid", "1-2"], 2, "grid values must lie in [0, 1]"),
            (["graphon-z", "const:0.3", "1-2", "--r", "1"], 2, "resolution must be >= 2"),
            (["mle", "{dir}/n0.edges"], 2, "node count must be positive"),
            (["mle", "{dir}/headless.edges"], 2, "expected header 'n <count>'"),
        ],
        ids=["markov-joint5", "skeleton-joint5", "joint-n7", "fit-n7", "eval-n7",
             "graphon-z-7-vertices", "beta-nan", "two-point-weight", "gaussian-sigma",
             "const-level", "product-spec", "grid-value", "resolution-1",
             "edge-list-n0", "edge-list-headless"],
    )
    def test_refused_input_exits_with_one_line(
        self, capsys, tmp_path, argv, code, message
    ):
        from exchnet.dependence import empty_dependence_graph
        from exchnet.graphs import LabeledNetwork

        joint3 = joint_to_json(er_joint(3, Fraction(1, 3)))
        files = {
            "joint5.json": dump_json(joint_to_json(er_joint(5, Fraction(1, 3)))),
            "dep5.json": dump_json(depgraph_to_json(empty_dependence_graph(5))),
            "joint7.json": json.dumps({**joint3, "n": 7}),
            "path7.edges": format_edge_list(LabeledNetwork.path(7)),
            "nu.json": json.dumps({"nu": {"star1": 0.25}}),
            "high.grid": "2\n0.2 1.5\n1.5 0.6\n",
            "n0.edges": "n 0\n",
            "headless.edges": "1 2\n2 3\n",
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        result = main([a.format(dir=tmp_path) for a in argv])
        captured = capsys.readouterr()
        assert (result, captured.out) == (code, "")
        prefix = {2: "invalid parameters: ", 3: "size cap: "}[code]
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["graphon-z", "GRID", "1-2"],
            ["sample", "graphon", "--phi", "GRID", "--n", "3", "--seed", "1"],
        ],
        ids=["graphon-z", "sample"],
    )
    def test_blank_grid_file_is_invalid_parameters(self, capsys, tmp_path, argv):
        grid = tmp_path / "blank.grid"
        grid.write_text("\n  \n")
        code = main([str(grid) if a == "GRID" else a for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("invalid parameters:")

    def test_extend_without_a_moment_file_is_invalid_parameters(self, capsys):
        code = main(["extend", "--m", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("invalid parameters:")

    def test_missing_input_file_is_io_error(self, capsys, tmp_path):
        code = main(["mle", str(tmp_path / "missing.edges")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith("io error:")

    def test_grid_rows_past_r_are_invalid_parameters(self, capsys, tmp_path):
        grid = tmp_path / "long.grid"
        grid.write_text("2\n0.1 0.2\n0.2 0.3\n9 9\n")
        code = main(["graphon-z", str(grid), "1-2"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("invalid parameters:")

    def test_battery_runs_clean(self, capsys):
        code, out = run_cli(capsys, "paper-examples")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 13
        assert all(l.startswith("PASS") for l in lines)

    def test_out_file(self, tmp_path, capsys, paw_file):
        target = tmp_path / "out.json"
        code, out = run_cli(capsys, "mle", str(paw_file), "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 4

    def test_failing_battery_item(self, capsys, monkeypatch, fast_battery):
        from exchnet import battery

        monkeypatch.setitem(
            battery.BATTERY, "petersen-structure", lambda: "forced failure"
        )
        code, out = run_cli(capsys, "paper-examples")
        assert code == 1
        assert "FAIL  petersen-structure  (forced failure)\n" in out
        assert out.endswith("\n12/13 examples passed\n")


# One valid invocation of each subcommand; {dir} is the test's tmp_path.
OUT_INVOCATIONS = {
    "stats": ["stats", "{dir}/paw.edges"],
    "mle": ["mle", "{dir}/paw.edges"],
    "mle-dissociated": ["mle-dissociated", "{dir}/p3.edges"],
    "fit": ["fit", "edges", "{dir}/paw.edges"],
    "eval": ["eval", "edges", "{dir}/nu.json", "{dir}/paw.edges"],
    "markov": ["markov", "{dir}/joint.json", "{dir}/dep.json"],
    "skeleton": ["skeleton", "{dir}/joint.json"],
    "extend": ["extend", "{dir}/z.json", "--m", "5"],
    "sample": ["sample", "er", "--n", "4", "--p", "0.5", "--seed", "7", "--count", "2"],
    "graphon-z": ["graphon-z", "const:0.3", "1-2,2-3"],
    "collisions": ["collisions", "--n", "5"],
    "paper-examples": ["paper-examples"],
}


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_out_file_holds_the_stdout_bytes(capsys, request, tmp_path, paw, command):
    from exchnet.dependence import empty_dependence_graph
    from exchnet.estimation import exch_mle

    if command == "paper-examples":
        request.getfixturevalue("fast_battery")
    (tmp_path / "paw.edges").write_text(format_edge_list(paw))
    (tmp_path / "p3.edges").write_text("n 3\n1 2\n2 3\n")
    (tmp_path / "nu.json").write_text(json.dumps({"nu": {"star1": 0.25}}))
    (tmp_path / "joint.json").write_text(
        dump_json(joint_to_json(er_joint(3, Fraction(1, 3))))
    )
    (tmp_path / "dep.json").write_text(
        dump_json(depgraph_to_json(empty_dependence_graph(3)))
    )
    (tmp_path / "z.json").write_text(dump_json(mobius_to_json(exch_mle(paw))))
    argv = [a.format(dir=tmp_path) for a in OUT_INVOCATIONS[command]]
    code, printed = run_cli(capsys, *argv)
    assert code == 0 and printed
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "")
    assert target.read_text() == printed
