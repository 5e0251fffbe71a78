import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from postman import chimera, graphs, metrics, qubo, samplers
from postman.cli import main
from postman.errors import InvalidArgumentError
from postman.graphs import Graph, write_edge_list

from conftest import DEMO_EDGES, NEAR_GUARD_QUBO, graph_to_json


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.edgelist"
    path.write_text(write_edge_list(Graph(6, DEMO_EDGES)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_domain_error(code, err):
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


class TestExact:
    def test_demo_solution(self, capsys, demo_file):
        code, out, _ = run(capsys, "exact", demo_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["m_min"] == 5
        assert payload["l_t"] == 30
        assert sorted(map(tuple, payload["matching"])) == [(0, 1), (2, 3)]
        assert "circuit" not in payload

    def test_circuit_flag(self, capsys, demo_file):
        code, out, _ = run(capsys, "exact", demo_file, "--circuit")
        payload = json.loads(out)
        assert payload["circuit"][0] == payload["circuit"][-1]

    def test_json_graph_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph_to_json(Graph(6, DEMO_EDGES))))
        code, out, _ = run(capsys, "exact", str(path))
        assert code == 0 and json.loads(out)["m_min"] == 5

    def test_matching_guard(self, capsys, tmp_path):
        # the star K1,16 has 16 odd leaves: above the enumeration guard of 14
        path = tmp_path / "star.edgelist"
        path.write_text(write_edge_list(Graph(17, [(0, v, 1) for v in range(1, 17)])))
        code, out, err = run(capsys, "exact", str(path))
        assert_domain_error(code, err)
        assert out == ""
        assert err == "error: refusing to enumerate pairings for d=16 > 14\n"

    def test_gap_search_guard(self, capsys, tmp_path):
        # the star K1,12 has 12 odd leaves: a 132-variable pair-QUBO, past the
        # branch-and-bound guard of 90
        path = tmp_path / "star.edgelist"
        path.write_text(write_edge_list(Graph(13, [(0, v, 1) for v in range(1, 13)])))
        code, out, err = run(capsys, "penalty-sweep", str(path), "--p-grid", "12")
        assert_domain_error(code, err)
        assert out == ""
        assert err == "error: dim 132 exceeds branch-and-bound guard 90\n"


class TestQubo:
    def test_header(self, capsys, demo_file):
        code, out, _ = run(capsys, "qubo", demo_file, "--p", "8")
        assert code == 0
        assert "p qubo 0 12 12 54" in out

    def test_penalty_too_small_is_domain_error(self, capsys, demo_file):
        code, _, err = run(capsys, "qubo", demo_file, "--p", "1")
        assert code == 3
        assert "penalty" in err.lower()

    def test_json_format(self, capsys, demo_file):
        code, out, _ = run(capsys, "qubo", demo_file, "--p", "8", "--format", "json")
        payload = json.loads(out)
        assert payload["dim"] == 12 and payload["offset"] == 32


class TestGen:
    def test_byte_identical(self, capsys):
        _, first, _ = run(capsys, "gen", "--n", "10", "--count", "3", "--seed", "1")
        _, second, _ = run(capsys, "gen", "--n", "10", "--count", "3", "--seed", "1")
        assert first == second and first.count("# generated") == 3

    def test_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "graphs"
        code, _, _ = run(capsys, "gen", "--n", "8", "--count", "2", "--seed", "5", "--out", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["g0000.edgelist", "g0001.edgelist"]

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("POSTMAN_SEED", "42")
        _, with_env, _ = run(capsys, "gen", "--n", "8", "--count", "1")
        _, explicit, _ = run(capsys, "gen", "--n", "8", "--count", "1", "--seed", "42")
        assert with_env == explicit

    def test_bad_env_seed_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("POSTMAN_SEED", "abc")
        code, _, err = run(capsys, "gen", "--n", "5")
        assert code == 1
        assert "--seed: invalid int value: 'abc'" in err and "Traceback" not in err


class TestSample:
    @pytest.fixture()
    def qubo_file(self, capsys, demo_file, tmp_path):
        path = tmp_path / "demo.qubo"
        run(capsys, "qubo", demo_file, "--p", "8", "--out", str(path))
        return str(path)

    def test_brute(self, capsys, qubo_file):
        code, out, _ = run(capsys, "sample", qubo_file, "--sampler", "brute")
        payload = json.loads(out)
        assert payload["records"][0]["energy"] == 5
        assert len(payload["records"]) == 4

    def test_sa_records_seed(self, capsys, qubo_file):
        code, out, _ = run(
            capsys, "sample", qubo_file, "--sampler", "sa",
            "--reads", "50", "--sweeps", "100", "--seed", "3",
        )
        payload = json.loads(out)
        assert payload["metadata"]["seed"] == 3
        assert payload["records"][0]["energy"] == 5
        assert all(r["config"] is None or set(r["config"]) <= {0, 1} for r in payload["records"])

    def test_tabu_csv(self, capsys, qubo_file):
        code, out, _ = run(capsys, "sample", qubo_file, "--sampler", "tabu", "--format", "csv", "--seed", "1")
        assert out.splitlines()[0] == "energy,multiplicity"
        assert out.splitlines()[1].startswith("5,")

    def test_tabu_tenure_past_int64(self, capsys, qubo_file):
        # a tenure longer than any search is read as it is: every flip stays tabu
        argv = ("sample", qubo_file, "--sampler", "tabu", "--restarts", "1", "--tenure")
        code, out, err = run(capsys, *argv, str(10**20))
        assert code == 0 and err == ""
        _, want, _ = run(capsys, *argv, str(10**6))
        assert json.loads(out)["records"] == json.loads(want)["records"]

    def test_infinite_beta_is_strict_json(self, capsys, tmp_path):
        def refuse(constant):
            raise AssertionError(f"non-JSON constant {constant}")

        path = tmp_path / "greedy.json"
        code, out, _ = run(
            capsys, "sample", str(GOLDEN / "demo.qubo"), "--sampler", "sa", "--reads", "3", "--sweeps", "5",
            "--beta-start", "inf", "--beta-end", "inf",
        )
        assert code == 0
        meta = json.loads(out, parse_constant=refuse)["metadata"]
        assert (meta["beta_start"], meta["beta_end"]) == ("inf", "inf")
        path.write_text(out)
        code, out, _ = run(capsys, "metrics", str(path), "--reference", "5", "--resamples", "20")
        assert code == 0
        assert json.loads(out, parse_constant=refuse)["metadata"]["reads"] == 3

    @pytest.mark.parametrize("sampler, multiplicity", [("sa", 3), ("tabu", 20), ("brute", 1)])
    def test_zero_variable_model(self, capsys, tmp_path, sampler, multiplicity):
        """A model with no variables has one configuration, the empty one, at its offset."""
        path = tmp_path / "zero.qubo"
        path.write_text("c offset 3\np qubo 0 0 0 0\n")
        code, out, err = run(
            capsys, "sample", str(path), "--sampler", sampler, "--reads", "3", "--sweeps", "5", "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert out == f"energy,multiplicity\n3,{multiplicity}\n"

    def test_sa_refuses_fields_past_2_53(self, capsys, tmp_path):
        # its Ising fields would round in float64, so the annealer refuses the model
        path = tmp_path / "big.qubo"
        path.write_text(qubo.write_qubo(qubo.QuboModel(dim=2, linear=(2**53, 1), quadratic={(0, 1): 1})))
        code, _, err = run(capsys, "sample", str(path), "--sampler", "sa", "--reads", "2", "--sweeps", "2")
        assert_domain_error(code, err)

    @pytest.mark.parametrize("sampler, multiplicity", [("tabu", 20), ("brute", 1)])
    def test_offset_past_2_53(self, capsys, tmp_path, sampler, multiplicity):
        # no float sum carries the offset, so it meets no guard and adds exactly
        path = tmp_path / "offset.qubo"
        path.write_text(qubo.write_qubo(qubo.QuboModel(dim=2, linear=(1, -1), quadratic={(0, 1): 2}, offset=2**53 + 1)))
        code, out, err = run(capsys, "sample", str(path), "--sampler", sampler, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == f"energy,multiplicity\n{2**53},{multiplicity}\n"

    def test_tabu_start_energy_counts_each_coupling_once(self, capsys, tmp_path):
        path = tmp_path / "near.qubo"
        path.write_text(qubo.write_qubo(NEAR_GUARD_QUBO))
        code, out, err = run(
            capsys, "sample", str(path), "--sampler", "tabu", "--tenure", "4", "--restarts", "4", "--seed", "2",
            "--format", "csv",
        )
        assert (code, err) == (0, "")
        assert out == "energy,multiplicity\n-4,3\n-3,1\n"

    def test_json_writer_refuses_nan(self):
        from postman.cli import _json_dump

        for value in (float("nan"), float("inf")):  # an unconverted infinity raises too
            with pytest.raises(ValueError):
                _json_dump({"t": value})


class TestEmbed:
    def test_by_n_logical(self, capsys):
        code, out, _ = run(capsys, "embed", "--n-logical", "12", "--m", "12")
        payload = json.loads(out)
        assert payload["stats"]["physical_qubits"] == 48
        assert payload["stats"]["max_chain_length"] == 4
        assert payload["stats"]["topology_qubits"] == 1152
        assert len(payload["chains"]) == 12

    def test_faults_file(self, capsys, tmp_path):
        faults = tmp_path / "faults.txt"
        faults.write_text("# dead qubits\n700\n701\n")
        code, out, _ = run(capsys, "embed", "--n-logical", "4", "--m", "12", "--faults", str(faults))
        payload = json.loads(out)
        assert payload["stats"]["topology_qubits"] == 1150

    def test_needs_size(self, capsys):
        code, _, err = run(capsys, "embed", "--m", "4")
        assert code == 3


class TestPipelines:
    def test_simulate(self, capsys, demo_file):
        code, out, _ = run(
            capsys, "simulate", demo_file, "--m", "3", "--jf", "1.0",
            "--reads", "60", "--sweeps", "150", "--seed", "2",
        )
        payload = json.loads(out)
        assert payload["reference_energy"] == 5
        assert payload["physical_qubits"] == 48
        assert set(payload["policies"]) == {"majority", "discard"}
        mv = payload["policies"]["majority"]["p_gs"]
        db = payload["policies"]["discard"]["p_gs"]
        assert 0.0 <= db <= mv <= 1.0

    def test_simulate_d8_instance(self, capsys, tmp_path):
        # 56 logical variables exceed the exhaustive guards; the certified
        # matching-weight reference (illegal penalty >= 2p) takes over
        from postman.graphs import odd_nodes, write_edge_list
        from conftest import graph_stream

        g = next(gr for gr in graph_stream(seed=88, n=10, p=0.4, w_hi=1) if len(odd_nodes(gr)) == 8)
        path = tmp_path / "d8.edgelist"
        path.write_text(write_edge_list(g))
        code, out, _ = run(
            capsys, "simulate", str(path), "--m", "14",
            "--reads", "4", "--sweeps", "20", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(out)
        from postman.exact import m_min

        assert payload["reference_energy"] == m_min(g).m_min

    def test_jf_sweep_csv(self, capsys, demo_file):
        code, out, _ = run(
            capsys, "jf-sweep", demo_file, "--m", "3", "--jf-grid", "0.5,1.0",
            "--reads", "30", "--sweeps", "80", "--seed", "4",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "jf,policy,gauges,reads,p_gs,t_99,broken_fraction"
        assert len(lines) == 1 + 2 * 2

    def test_penalty_sweep(self, capsys, demo_file):
        code, out, _ = run(
            capsys, "penalty-sweep", demo_file, "--p-grid", "4,8",
            "--reads", "60", "--sweeps", "120", "--seed", "1",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "p,p_over_n,gap,p_gs_sa,p_gs_tabu"
        assert len(lines) == 3
        assert lines[1].startswith("4,0.666")

    def test_simulate_with_imported_embedding(self, capsys, demo_file, tmp_path):
        emb_path = tmp_path / "emb.json"
        code, out, _ = run(capsys, "embed", "--n-logical", "12", "--m", "3", "--out", str(emb_path))
        assert code == 0
        code, out, _ = run(
            capsys, "simulate", demo_file, "--embedding", str(emb_path),
            "--reads", "30", "--sweeps", "60", "--seed", "2",
        )
        assert code == 0
        assert json.loads(out)["physical_qubits"] == 48

    def test_qubit_twice_in_a_chain_is_domain(self, capsys, demo_file, tmp_path):
        payload = chimera.clique_embedding(12, chimera.chimera_graph(3)).to_json()
        payload["chains"]["0"].append(payload["chains"]["0"][0])
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(
            capsys, "simulate", demo_file, "--embedding", str(path), "--reads", "4", "--sweeps", "4"
        )
        assert_domain_error(code, err)
        assert out == "" and f"qubit {payload['chains']['0'][0]} appears twice in chain 0" in err

    def test_jf_sweep_seed_stable(self, capsys, demo_file):
        args = [
            "jf-sweep", demo_file, "--m", "3", "--jf-grid", "0.5,1.0",
            "--reads", "20", "--sweeps", "50", "--seed", "4",
        ]
        _, one, _ = run(capsys, *args)
        _, again, _ = run(capsys, *args)
        assert one == again

    def test_defects_heatmaps(self, capsys, demo_file, tmp_path):
        out_dir = tmp_path / "maps"
        code, _, _ = run(
            capsys, "defects", demo_file, "--k", "1", "--deltas", "1,5", "--out", str(out_dir)
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["defects_delta_1.csv", "defects_delta_5.csv"]

    def test_defects_heatmaps_fractional_delta(self, capsys, demo_file, tmp_path):
        out_dir = tmp_path / "maps"
        code, _, _ = run(
            capsys, "defects", demo_file, "--k", "1", "--deltas", "1/2,3", "--out", str(out_dir)
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["defects_delta_1_2.csv", "defects_delta_3.csv"]

    def test_defects_combos_stdout(self, capsys, demo_file):
        code, out, _ = run(capsys, "defects", demo_file, "--k", "2", "--deltas", "3")
        assert out.splitlines()[0] == "delta,edges,m_min"

    def test_metrics_report(self, capsys, demo_file, tmp_path):
        qubo_path = tmp_path / "demo.qubo"
        run(capsys, "qubo", demo_file, "--p", "8", "--out", str(qubo_path))
        samples_path = tmp_path / "samples.json"
        run(
            capsys, "sample", str(qubo_path), "--sampler", "sa",
            "--reads", "40", "--sweeps", "100", "--seed", "6", "--out", str(samples_path),
        )
        code, out, _ = run(
            capsys, "metrics", str(samples_path), "--reference", "5", "--seed", "0"
        )
        payload = json.loads(out)
        assert 0.0 <= payload["p_gs_float"] <= 1.0
        assert payload["tts"] is not None  # n and sweeps inferred from the file


class TestExitCodes:
    def test_missing_file_is_io(self, capsys):
        code, _, err = run(capsys, "exact", "/nonexistent/path.edgelist")
        assert code == 2

    def test_bad_usage(self, capsys):
        assert main(["exact"]) == 1  # missing positional

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_malformed_input_is_domain(self, capsys, tmp_path):
        bad = tmp_path / "bad.edgelist"
        bad.write_text("not a graph\n")
        code, _, err = run(capsys, "exact", str(bad))
        assert code == 3

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bad.qubo", "p qubo 0 x 1 0\n"),
            ("bad.qubo", "p qubo 0 2 1 0\n0 zero 1\n"),
            ("bad.qubo", "p qubo 0 -5 0 0\n"),
            ("bad.qubo", "p qubo 0 2 2 1\n0 0 1\n0 0 -5\n0 1 2\n"),
            ("bad.qubo", "p qubo 0 2 1 2\n0 0 1\n0 1 2\n0 1 3\n"),
            ("samples.json", '{"metadata": {}}'),
            ("samples.json", '{"records": [{"config": "ab", "energy": 1, "multiplicity": 1}]}'),
            ("qubo.json", '{"dim": 2}'),
            ("qubo.json", '{"dim": 2, "linear": [1, 2], "quadratic": [[0, 5, 1]], "offset": 0}'),
            ("qubo.json", '{"dim": 2, "linear": [1, 2], "quadratic": [[0, 1, 1], [0, 1, -3]], "offset": 0}'),
            ("graph.json", '{"n": "x", "edges": []}'),
            ("graph.json", '{"n": 3, "edges": [[0, 1.5, 2], [1, 2, 1]]}'),
            ("graph.json", '{"n": 3.0, "edges": [[0, 1, 2], [1, 2, 1]]}'),
            ("graph.json", '{"n": 3, "edges": [[0, true, 2], [1, 2, 1]]}'),
            ("qubo.json", '{"dim": 2.5, "linear": [1, 2], "quadratic": [], "offset": 0}'),
            ("qubo.json", '{"dim": 2, "linear": [1, 2], "quadratic": [[0, 1.9, 1]], "offset": 0}'),
            ("qubo.json", '{"dim": 2, "linear": [1, 2], "quadratic": [], "offset": 0, "pairs": [[0, 1.5]]}'),
            ("samples.json", '{"records": [{"config": [1, 0.5], "energy": 1, "multiplicity": 1}]}'),
            ("samples.json", '{"records": [{"config": [1, 0], "energy": 1, "multiplicity": 2.7}]}'),
            ("samples.json", '{"records": [{"config": [1, 0], "energy": 1, "multiplicity": true}]}'),
            ("samples.json", '{"records": [{"config": [1, 0], "energy": 1, "multiplicity": -1}, {"config": [0, 0], "energy": 5, "multiplicity": 2}]}'),
            ("samples.json", '{"records": [{"config": [1, 0], "energy": 1, "multiplicity": 0}, {"config": [0, 0], "energy": 5, "multiplicity": 2}]}'),
            ("samples.json", '{"records": [{"config": [1, 0], "energy": 1, "multiplicity": 3}, {"config": null, "energy": null, "multiplicity": 0}]}'),
            ("samples.json", '{"metadata": {"n_sweeps": 2.5}, "records": [{"config": [1, 0], "energy": 1, "multiplicity": 1}]}'),
            ("samples.json", '{"metadata": {"n_sweeps": 10}, "records": [{"config": [1, 0], "energy": 5, "multiplicity": 2}, {"config": [1, 0, 1, 1], "energy": 7, "multiplicity": 1}]}'),
            ("samples.json", '{"metadata": {"n_sweeps": 10}, "records": [{"config": [1, 0], "energy": 5, "multiplicity": 2}, {"config": [1, 0], "energy": 7, "multiplicity": 1}]}'),
            ("graph.json", '{"n": 3, "edges": [[0, 1, 2], [1, 2, 1]'),
            ("embedding.json", '{"m": 3, "chains": {"0": [0], "1": [4]'),
        ],
    )
    def test_malformed_parser_input_is_domain(self, capsys, tmp_path, demo_file, name, text):
        path = tmp_path / name
        path.write_text(text)
        argv = {
            "bad.qubo": ["sample", str(path), "--sampler", "brute"],
            "qubo.json": ["sample", str(path), "--sampler", "brute"],
            "samples.json": ["metrics", str(path), "--reference", "5"],
            "graph.json": ["exact", str(path)],
            "embedding.json": ["simulate", demo_file, "--embedding", str(path), "--reads", "4", "--sweeps", "4"],
        }[name]
        assert_domain_error(*run(capsys, *argv)[::2])

    @pytest.mark.parametrize("multiplicity", [-1, 0])
    def test_multiplicity_below_one_is_refused(self, capsys, tmp_path, multiplicity):
        # a negative count once printed 45 reads from the golden's 50 and bootstrapped
        # over the indicators of the other records
        payload = json.loads((Path(__file__).parent / "golden" / "samples.json").read_text())
        payload["records"][0]["multiplicity"] = multiplicity
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "metrics", str(path), "--reference", "5")
        assert_domain_error(code, err)
        assert out == ""
        assert err == f"error: malformed sample set: multiplicity {multiplicity} is below 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "QUBO", "--reads", "0"],
            ["sample", "QUBO", "--sweeps", "0"],
            ["sample", "QUBO", "--sampler", "sa", "--reads", "3", "--sweeps", "5", "--beta-end", "inf"],
            ["sample", "QUBO", "--sampler", "tabu", "--tenure", "0"],
            ["sample", "QUBO", "--sampler", "tabu", "--restarts", "0"],
            ["sample", "QUBO", "--sampler", "brute", "--keep", "0"],
            ["simulate", "DEMO", "--m", "3", "--reads", "0"],
            ["exact", "NEGATIVE"],
            ["gen", "--n", "6", "--edge-prob", "1.5"],
            ["embed", "--n-logical", "0"],
            ["embed", "--n-logical", "12", "--m", str(chimera.MAX_GRID + 1)],
            ["simulate", "DEMO", "--m", str(chimera.MAX_GRID + 1)],
            ["jf-sweep", "DEMO", "--m", str(chimera.MAX_GRID + 1)],
            ["defects", "DEMO", "--deltas", "-1"],
            ["jf-sweep", "DEMO", "--m", "3", "--jf-grid", "abc"],
            ["simulate", "DEMO", "--m", "3", "--jf", "nan"],
            ["simulate", "DEMO", "--m", "3", "--reads", "2", "--sweeps", "2", "--anneal-time", "nan"],
            ["metrics", "SAMPLES", "--reference", "5", "--tau-s", "nan"],
            ["metrics", "SAMPLES", "--reference", "5", "--tau-s", "inf"],
            ["metrics", "SAMPLES", "--reference", "5", "--anneal-time", "inf"],
            ["simulate", "DEMO", "--m", "3", "--reads", "2", "--sweeps", "2", "--anneal-time", "inf"],
            ["jf-sweep", "DEMO", "--m", "3", "--reads", "2", "--sweeps", "2", "--jf-grid", "1", "--anneal-time", "inf"],
            ["jf-sweep", "DEMO", "--m", "3", "--jf-grid", ","],
            ["jf-sweep", "DEMO", "--m", "3", "--jf-grid", ""],
            ["penalty-sweep", "DEMO", "--p-grid", ","],
            ["metrics", "SAMPLES", "--reference", "5", "--n", "0"],
            ["metrics", "SAMPLES", "--reference", "5", "--sweeps", "0"],
            ["defects", "DEMO", "--deltas", ""],
            ["defects", "DEMO", "--deltas", ",", "--k", "1", "--out", "DIR"],
            ["defects", "DEMO", "--deltas", "1,1"],
            ["defects", "DEMO", "--deltas", "1,2/2", "--k", "1", "--out", "DIR"],
        ],
    )
    def test_argument_out_of_range_is_domain(self, capsys, tmp_path, demo_file, argv):
        negative = tmp_path / "negative.edgelist"
        negative.write_text("2 1\n0 1 -3\n")
        files = {
            "QUBO": str(Path(__file__).parent / "golden" / "demo.qubo"),
            "DEMO": demo_file,
            "NEGATIVE": str(negative),
            "SAMPLES": str(Path(__file__).parent / "golden" / "samples.json"),
            "DIR": str(tmp_path / "maps"),
        }
        assert_domain_error(*run(capsys, *[files.get(a, a) for a in argv])[::2])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["jf-sweep", "DEMO", "--m", "3", "--jf-grid", "0.5,1,1.0"], "--jf-grid value 1.0 is repeated"),
            (["penalty-sweep", "DEMO", "--p-grid", "8,16/2"], "--p-grid value 8 is repeated"),
            (["defects", "DEMO", "--deltas", "1/2,3,2/4"], "--deltas value 1/2 is repeated"),
        ],
    )
    def test_repeated_grid_value(self, capsys, demo_file, argv, message):
        code, out, err = run(capsys, *[demo_file if a == "DEMO" else a for a in argv])
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "5", "--format", "csv"],
            ["exact", "DEMO", "--format", "csv"],
            ["exact", "DEMO", "--seed", "1"],
            ["qubo", "DEMO", "--seed", "1"],
            ["embed", "--n-logical", "4", "--format", "json"],
            ["embed", "--n-logical", "4", "--seed", "1"],
            ["simulate", "DEMO", "--format", "csv"],
            ["defects", "DEMO", "--format", "json"],
            ["defects", "DEMO", "--seed", "1"],
            ["metrics", "DEMO", "--reference", "5", "--format", "csv"],
        ],
    )
    def test_flag_not_taken_is_usage(self, capsys, demo_file, argv):
        code, out, err = run(capsys, *[demo_file if a == "DEMO" else a for a in argv])
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err and "Traceback" not in err
        # the subcommand's own parser reports it
        assert err.startswith(f"usage: postman {argv[0]} ")
        assert f"postman {argv[0]}: error: unrecognized arguments" in err

    @pytest.mark.parametrize(
        "payload",
        [
            {"chains": {"0": [0]}},
            {"m": 3},
            {"m": 3, "chains": {"0": [0], "2": [4]}},
            {"m": 3, "chains": {"0": ["a"]}},
        ],
        ids=["no-m", "no-chains", "chain-keys", "qubit-id"],
    )
    def test_malformed_embedding_is_domain(self, capsys, tmp_path, demo_file, payload):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "simulate", demo_file, "--embedding", str(path), "--reads", "4", "--sweeps", "4"
        )
        assert_domain_error(code, err)


class TestSplitSweeps:
    """jf-sweep points and penalty-sweep sampler runs at worker counts forced
    through `samplers._cores`: the output and the errors of the plain loop."""

    SWEEPS = {
        "jf-sweep": ["jf-sweep", "DEMO", "--m", "3", "--jf-grid", "0.5,1.0,1.5", "--gauges", "2",
                     "--reads", "12", "--sweeps", "30", "--seed", "3"],
        "penalty-sweep": ["penalty-sweep", "DEMO", "--p-grid", "4,8,16", "--reads", "20", "--sweeps", "40",
                          "--restarts", "2", "--seed", "3"],
    }

    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        assert len(os.listdir("/proc/self/task")) == 1  # forks beside no other thread, as `_cores` allows
        yield
        assert multiprocessing.active_children() == []

    def at_each_worker_count(self, capsys, monkeypatch, argv):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(samplers, "_cores", lambda: workers)
            results.append(run(capsys, *argv))
        assert results[0] == results[1] == results[2]
        return results[0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", SWEEPS)
    def test_same_output_at_every_worker_count(self, capsys, monkeypatch, demo_file, command, fmt):
        argv = [demo_file if a == "DEMO" else a for a in self.SWEEPS[command]]
        code, out, err = self.at_each_worker_count(capsys, monkeypatch, [*argv, "--format", fmt])
        assert (code, err) == (0, "")
        rows = json.loads(out)["points" if command == "jf-sweep" else "rows"] if fmt == "json" else out.splitlines()[1:]
        assert len(rows) == (3 * 2 if command == "jf-sweep" else 3)

    @pytest.mark.parametrize("command", SWEEPS)
    def test_worker_error_is_the_serial_one(self, capsys, monkeypatch, demo_file, command):
        # points 1 and 2 fail: with two workers point 2 fails here and point 1, the one
        # the plain loop reaches first, in the worker
        if command == "jf-sweep":
            sample = metrics.sample_embedded

            def refusing(embedded, *args, **kwargs):
                if embedded.jf >= 1:
                    raise InvalidArgumentError(f"refused at jf {embedded.jf}")
                return sample(embedded, *args, **kwargs)

            monkeypatch.setattr(metrics, "sample_embedded", refusing)
            message = "error: refused at jf 1\n"
        else:
            tabu = samplers.tabu_search

            def refusing(model, *args, **kwargs):
                if model.penalty >= 8:
                    raise InvalidArgumentError(f"refused at p {model.penalty}")
                return tabu(model, *args, **kwargs)

            monkeypatch.setattr(samplers, "tabu_search", refusing)
            message = "error: refused at p 8\n"
        argv = [demo_file if a == "DEMO" else a for a in self.SWEEPS[command]]
        assert self.at_each_worker_count(capsys, monkeypatch, argv) == (3, "", message)

    def test_gap_runs_first_in_each_unit(self, capsys, monkeypatch, tmp_path):
        # the K1,12 star of `test_gap_search_guard`: every p's gap refuses before its samplers run
        path = tmp_path / "star.edgelist"
        path.write_text(write_edge_list(Graph(13, [(0, v, 1) for v in range(1, 13)])))

        def refuse(*args, **kwargs):
            raise InvalidArgumentError("a sampler ran before its p's gap")

        monkeypatch.setattr(samplers, "simulated_annealing", refuse)
        monkeypatch.setattr(samplers, "tabu_search", refuse)
        argv = ["penalty-sweep", str(path), "--p-grid", "12,24"]
        assert self.at_each_worker_count(capsys, monkeypatch, argv) == (
            3, "", "error: dim 132 exceeds branch-and-bound guard 90\n")

    def test_bad_p_refused_before_the_split(self, capsys, monkeypatch, demo_file):
        def refuse(*args, **kwargs):
            raise AssertionError("the split started before every model was built")

        monkeypatch.setattr(samplers, "_fan_out", refuse)
        code, out, err = run(capsys, "penalty-sweep", demo_file, "--p-grid", "4,2")
        assert (code, out, err) == (3, "", "error: penalty 2 is below the bound d=4\n")

    def test_piped_stdout_prints_each_line_once(self, capsys, monkeypatch, demo_file):
        argv = [demo_file if a == "DEMO" else a for a in self.SWEEPS["penalty-sweep"]]
        path = os.pathsep.join([str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH", "")])
        # the sweep splits over this host's cores (`samplers._cores`)
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "postman", *argv], capture_output=True, text=True,
                              env=env, timeout=120)
        monkeypatch.setattr(samplers, "_cores", lambda: 1)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert len(proc.stdout.splitlines()) == 4

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "DEMO", "--m", "3", "--reads", "4", "--sweeps", "4", "--anneal-time", "inf"],
             "anneal time must be positive and finite"),
            (["jf-sweep", "DEMO", "--m", "3", "--jf-grid", "0.5,1.0", "--reads", "4", "--sweeps", "4",
              "--anneal-time", "inf"], "anneal time must be positive and finite"),
            (["jf-sweep", "DEMO", "--m", "3", "--jf-grid", "0.5,1.0", "--anneal-time", "0"],
             "anneal time must be positive and finite"),
            (["penalty-sweep", "DEMO", "--p-grid", "4,8", "--reads", "0"], "need at least one read"),
            (["penalty-sweep", "DEMO", "--p-grid", "4,8", "--sweeps", "0"], "need at least one sweep"),
            (["penalty-sweep", "DEMO", "--p-grid", "4,8", "--restarts", "0"], "need at least one restart"),
        ],
    )
    def test_run_wide_argument_refused_before_the_first_unit(self, capsys, monkeypatch, demo_file, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a unit ran before the arguments were checked")

        for module, name in [(metrics, "_anneal"), (samplers, "spectral_gap_large"), (samplers, "_fan_out")]:
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(metrics, "_fan_out", refuse)
        code, out, err = run(capsys, *[demo_file if a == "DEMO" else a for a in argv])
        assert (code, out, err) == (3, "", f"error: {message}\n")


class TestHeaderGuards:
    """A header's size, or `gen`'s node count, is refused before anything is
    sized from it."""

    @pytest.mark.parametrize(
        "name, text, argv, message",
        [
            (
                "big.qubo", f"p qubo 0 {10**10} 0 0\n", ["sample", "FILE", "--sampler", "brute"],
                f"dim {10**10} exceeds QUBO dimension guard {qubo.MAX_DIM}",
            ),
            (
                "big.edgelist", f"{10**11} 0\n", ["exact", "FILE"],
                f"graph of {10**11} nodes exceeds node guard {graphs.MAX_NODES}",
            ),
            (
                "big.json", json.dumps({"n": 10**11, "edges": []}), ["exact", "FILE"],
                f"graph of {10**11} nodes exceeds node guard {graphs.MAX_NODES}",
            ),
            (
                None, None, ["gen", "--n", str(10**5)],
                f"ensemble of {10**5} nodes has 4999950000 candidate pairs, over the pair guard {graphs.MAX_PAIRS}",
            ),
        ],
    )
    def test_oversized_header_is_domain(self, capsys, tmp_path, name, text, argv, message):
        if name:
            path = tmp_path / name
            path.write_text(text)
            argv = [str(path) if a == "FILE" else a for a in argv]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, _, err = run(capsys, *argv)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_domain_error(code, err)
        assert err == f"error: {message}\n"
        assert elapsed < 0.5
        assert peak < 2**20


class TestCertifiedReference:
    """One edge of weight 10: M_min = 10, certified only when 10 < 2p."""

    @pytest.fixture()
    def heavy_edge(self, tmp_path):
        path = tmp_path / "heavy.edgelist"
        path.write_text("2 1\n0 1 10\n")
        return str(path)

    @pytest.mark.parametrize("command", ["simulate", "jf-sweep"])
    def test_uncertified_reference_is_domain(self, capsys, heavy_edge, command):
        code, _, err = run(capsys, command, heavy_edge, "--m", "1", "--reads", "20", "--sweeps", "50")
        assert_domain_error(code, err)
        assert "--p 6" in err

    def test_smallest_certifying_penalty(self, capsys, heavy_edge):
        code, out, _ = run(
            capsys, "simulate", heavy_edge, "--p", "6", "--m", "1", "--reads", "20", "--sweeps", "50"
        )
        assert code == 0
        assert json.loads(out)["reference_energy"] == 10


GOLDEN = Path(__file__).parent / "golden"
TOKENS = ["-1", "0", "1.5", "x", "1/0", '""', "[]", "null"]
# the same set as JSON values, plus a boolean, an integral float and one that overflows to inf
JSON_TOKENS = ["-1", "0", "1.5", '"x"', '"1/0"', '""', "[]", "null", "true", "2.0", "1e400"]
TOKEN = re.compile(r'"[^"]*"|[^\s,:\[\]{}"]+')  # a JSON string, or a run of other text
# (input file, command line); FILE stands for the mutated copy of the input, DEMO for the demo graph
FUZZ_CASES = [
    ("demo.edgelist", "exact FILE --circuit"),
    ("demo.edgelist", "qubo FILE --p 8 --format json"),
    ("demo.edgelist", "defects FILE --k 2 --deltas 1"),
    ("demo.edgelist", "simulate FILE --m 3 --reads 4 --sweeps 4"),
    ("demo.edgelist", "jf-sweep FILE --m 3 --jf-grid 1.0 --reads 4 --sweeps 4"),
    ("demo.edgelist", "penalty-sweep FILE --p-grid 8 --reads 4 --sweeps 4 --restarts 1"),
    ("demo.qubo", "sample FILE --sampler brute --keep 2"),
    ("demo.qubo", "sample FILE --sampler tabu --restarts 1 --tenure 3"),
    ("demo.qubo", "sample FILE --reads 4 --sweeps 4 --format csv"),
    ("demo.qubo", "embed --qubo FILE --m 3"),
    ("samples.json", "metrics FILE --reference 5 --resamples 20"),
    ("qubo.json", "sample FILE --sampler brute"),
    ("embedding.json", "simulate DEMO --embedding FILE --reads 4 --sweeps 4"),
]


@pytest.fixture(scope="module")
def fuzz_inputs():
    """The golden inputs, plus a QUBO JSON and an embedding JSON, as text."""
    texts = {name: (GOLDEN / name).read_text() for name in ("demo.edgelist", "demo.qubo", "samples.json")}
    model = qubo.read_qubo(texts["demo.qubo"])
    texts["qubo.json"] = json.dumps(qubo.qubo_to_json(model), indent=1)
    emb = chimera.clique_embedding(12, chimera.chimera_graph(3))
    texts["embedding.json"] = json.dumps(emb.to_json(), indent=1)
    return texts


class TestFuzz:
    """main() on mutated inputs and flags: a documented exit code, never a traceback."""

    # tmp_path is shared by the examples; each one rewrites the file it reads
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_inputs(self, tmp_path, fuzz_inputs, data):
        name, command = data.draw(st.sampled_from(FUZZ_CASES))
        lines = fuzz_inputs[name].splitlines(keepends=True)
        path = tmp_path / name
        files = {"FILE": str(path), "DEMO": str(GOLDEN / "demo.edgelist")}
        argv = [files.get(a, a) for a in command.split()]
        values = [  # positions of flag values
            k for k in range(1, len(argv)) if argv[k - 1].startswith("--") and not argv[k].startswith("--")
        ]
        ops = ["drop", "duplicate", "swap", "token"] + (["flag"] if values else [])
        op = data.draw(st.sampled_from(ops))
        if op == "drop":
            del lines[data.draw(st.integers(0, len(lines) - 1))]
        elif op == "duplicate":
            i = data.draw(st.integers(0, len(lines) - 1))
            lines.insert(i, lines[i])
        elif op == "swap":
            i, j = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2))
            lines[i], lines[j] = lines[j], lines[i]
        text = "".join(lines)
        if op == "token":
            a, b = data.draw(st.sampled_from([m.span() for m in TOKEN.finditer(text)]))
            tokens = JSON_TOKENS if name.endswith(".json") else TOKENS
            text = text[:a] + data.draw(st.sampled_from(tokens)) + text[b:]
        elif op == "flag":
            value = data.draw(st.sampled_from(TOKENS))
            argv[data.draw(st.sampled_from(values))] = "" if value == '""' else value
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
