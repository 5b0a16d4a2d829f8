"""Command-line contract: output schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from schurstream import cg, cli, errors
from schurstream.cli import run
from schurstream.oracle import _transform_bytes
from schurstream.partitions import Partition
from register_mode import register_branch_distribution
from schurstream.sampler import _leaf_bytes, init_state, step

IID_MIXED_N3 = {"iid": {"rho": [[0.5, 0], [0, 0.5]], "n": 3}}
ZEROS_N5 = [[1, 0]] * 5


@pytest.fixture
def iid_file(tmp_path):
    p = tmp_path / "iid_mixed_n3.json"
    p.write_text(json.dumps(IID_MIXED_N3))
    return str(p)


@pytest.fixture
def zeros_file(tmp_path):
    p = tmp_path / "zeros_n5.json"
    p.write_text(json.dumps(ZEROS_N5))
    return str(p)


class TestDist:
    def test_iid_mixed_marginal(self, iid_file):
        code, out = run(["dist", "--d", "2", "--stream", iid_file])
        assert code == 0
        report = json.loads(out)
        assert abs(report["marginal"]["3,0"] - 0.5) < 1e-12
        assert abs(report["marginal"]["2,1"] - 0.5) < 1e-12

    def test_report_metadata(self, iid_file):
        _, out = run(["dist", "--d", "2", "--stream", iid_file])
        report = json.loads(out)
        assert "version" in report
        assert report["config"]["command"] == "dist"
        assert report["config"]["prune"] == 1e-12

    def test_csv_matches_json(self, iid_file):
        _, js = run(["dist", "--d", "2", "--stream", iid_file])
        _, csv = run(["dist", "--d", "2", "--stream", iid_file,
                      "--format", "csv"])
        report = json.loads(js)
        lines = csv.strip().splitlines()
        assert lines[0] == "lambda,path,probability"
        for line in lines[1:]:
            lam, path, prob = line.split(",")
            key = path.replace(";", ",")
            assert float(prob) == report["paths"][key]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_paths_past_row_nine(self, fmt):
        """The report's path text is LatticePath's, steps of 10 and more
        included, and each CSV label is the path's endpoint."""
        from argparse import Namespace

        from schurstream.partitions import LatticePath
        from schurstream.sampler import BranchDistribution

        paths = [tuple(range(12)), tuple(range(1, 13))]
        dist = BranchDistribution(d=13, entries={s: 0.5 for s in paths},
                                  marginal={LatticePath(s).endpoint(13): 0.5 for s in paths})
        out = cli._emit_dist(Namespace(command="dist", format=fmt, d=13), dist)
        if fmt == "json":
            assert list(json.loads(out)["paths"]) == [str(LatticePath(s)) for s in paths]
        else:
            assert out.splitlines()[1:] == [
                f"{str(LatticePath(s).endpoint(13)).replace(',', ';')},"
                f"{str(LatticePath(s)).replace(',', ';')},0.5" for s in paths]


class TestSample:
    def test_symmetric_stream(self, zeros_file):
        code, out = run(["sample", "--d", "2", "--stream", zeros_file,
                         "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["lambda"] == "5,0"
        assert report["path"] == "0,0,0,0"

    def test_a_parsed_option_does_not_leak_into_the_next_call(self, zeros_file):
        """The parser is built once per process; each call starts from the
        defaults."""
        assert cli.build_parser() is cli.build_parser()
        _, out = run(["sample", "--stream", zeros_file, "--seed", "5"])
        assert json.loads(out)["seed"] == 5
        _, out = run(["sample", "--stream", zeros_file])
        assert json.loads(out)["seed"] == 0
        assert json.loads(out)["config"]["seed"] == 0

    def test_trials_fan_out(self, zeros_file):
        _, out = run(["sample", "--d", "2", "--stream", zeros_file,
                      "--seed", "0", "--trials", "3"])
        report = json.loads(out)
        assert len(report["trials"]) == 3
        assert report["counts"] == {"5,0": 3}


class TestFull:
    def test_singlet_vector(self, tmp_path):
        inv = 1 / np.sqrt(2)
        state = [0, inv, -inv, 0]
        p = tmp_path / "singlet.json"
        p.write_text(json.dumps(state))
        code, out = run(["full", "--d", "2", "--state", str(p)])
        assert code == 0
        report = json.loads(out)
        assert abs(report["marginal"]["1,1"] - 1.0) < 1e-12

    def test_rho_form(self, tmp_path):
        p = tmp_path / "mixed2.json"
        p.write_text(json.dumps({"rho": [[0.25, 0, 0, 0], [0, 0.25, 0, 0],
                                         [0, 0, 0.25, 0], [0, 0, 0, 0.25]]}))
        code, out = run(["full", "--d", "2", "--state", str(p)])
        assert code == 0
        report = json.loads(out)
        assert abs(report["marginal"]["2,0"] - 0.75) < 1e-12


class TestOracle:
    def test_compare_against_sampler(self, iid_file):
        code, out = run(["oracle", "--d", "2", "--n", "3",
                         "--compare", iid_file])
        assert code == 0
        report = json.loads(out)
        assert report["max_deviation"] <= 1e-9

    def test_csv_compare_is_refused_before_the_stream_is_read(self, tmp_path, iid_file,
                                                              monkeypatch):
        """The CSV report holds no sampler marginal and no deviation, so
        --compare with it exits 1 before the stream is read or walked."""
        def enumerate_(*args, **kwargs):
            raise AssertionError("the CSV report holds no sampler marginal")

        monkeypatch.setattr(cli, "branch_distribution", enumerate_)
        monkeypatch.setattr(cli, "load_stream", enumerate_)
        argv = ["oracle", "--n", "3", "--format", "csv", "--compare"]
        for stream in (iid_file, str(tmp_path / "missing.json")):
            code, out = run(argv + [stream])
            assert code == 1
            assert "--compare needs the JSON report" in json.loads(out)["error"]
        assert run(["oracle", "--n", "3", "--format", "csv"])[0] == 0

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_no_copies_exit_1(self, n):
        code, out = run(["oracle", "--n", n])
        assert code == 1
        assert json.loads(out) == {"error": "n >= 1 required"}

    def test_one_copy_at_large_d(self):
        """d = 1000 rows: the label enumeration holds no frame per row,
        so the report comes out, not a RecursionError after U is built."""
        code, out = run(["oracle", "--d", "1000", "--n", "1"])
        assert code == 0
        marginal = json.loads(out)["marginal"]
        assert list(marginal) == [",".join(["1"] + ["0"] * 999)]
        assert abs(marginal[list(marginal)[0]] - 1.0) <= 1e-12

    def test_compare_is_checked_before_the_transform(self, tmp_path, zeros_file,
                                                     monkeypatch):
        def probs(*args, **kwargs):
            raise AssertionError("the compare stream is checked first")

        monkeypatch.setattr(cli, "weak_schur_probs", probs)
        for stream, says in [(str(tmp_path / "missing.json"), "missing.json"),
                             (zeros_file, "--n 3")]:
            code, out = run(["oracle", "--n", "3", "--compare", stream])
            assert code == 1
            assert says in json.loads(out)["error"]

    def test_compare_walk_is_refused_before_the_transform(self, tmp_path, monkeypatch):
        """At d=30, n=2 a budget of the oracle's estimate admits the oracle
        and the walk's CG builds but not its density-matrix step of side 900,
        which is refused before the oracle runs."""
        def probs(*args, **kwargs):
            raise AssertionError("the compare walk runs first")

        monkeypatch.setattr(cli, "weak_schur_probs", probs)
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(cg, "_cache_bytes", 0)
        monkeypatch.setattr(errors, "MEMORY_BUDGET", _transform_bytes(2, 30))
        p = tmp_path / "iid.json"
        p.write_text(json.dumps({"iid": {"rho": (np.eye(30) / 30).tolist(), "n": 2}}))
        code, out = run(["oracle", "--d", "30", "--n", "2", "--compare", str(p)])
        assert code == 2
        assert "density-matrix step of side 900" in json.loads(out)["error"]

    @pytest.mark.parametrize("flag,data,says", [
        ("--compare", [[1, 1], [1, 0], [1, 0]],
         "compare stream element 0: state vector not normalized"),
        ("--compare", [[1, 0], {"rho": [[1.5, 0], [0, -0.5]]}, [1, 0]],
         "compare stream element 1: density matrix not positive semidefinite"),
        ("--compare", [[1, 0], [1, 0], [1, 0, 0]],
         "compare stream element 2: state length 3 != 2"),
        ("--compare", {"iid": {"rho": [[0.5, 0.5], [0.5, 0.6]], "n": 3}},
         "compare stream element 0: density matrix trace != 1"),
        ("--state", {"vector": "x"}, "state file: expected a non-empty list"),
        ("--state", [1, 1, 0, 0, 0, 0, 0, 0],
         "state file: state vector not normalized"),
        ("--state", {"rho": np.diag([1.5, -0.5] + [0] * 6).tolist()},
         "state file: density matrix not positive semidefinite"),
        ("--state", [1, 0], "state file: state length 2 != 8"),
    ], ids=["unnormalized", "not-psd", "wrong-length", "iid-trace", "state-file",
            "state-unnormalized", "state-not-psd", "state-wrong-length"])
    def test_unphysical_input_is_refused_before_the_transform(
            self, tmp_path, monkeypatch, flag, data, says):
        def probs(*args, **kwargs):
            raise AssertionError("the inputs are checked first")

        monkeypatch.setattr(cli, "weak_schur_probs", probs)
        p = tmp_path / "input.json"
        p.write_text(json.dumps(data))
        code, out = run(["oracle", "--n", "3", flag, str(p)])
        assert code == 1
        assert json.loads(out) == {"error": says}


class TestCg:
    def test_report_structure(self):
        code, out = run(["cg", "--d", "2", "--lambda", "3,1"])
        assert code == 0
        report = json.loads(out)
        assert report["size"] == 6
        assert [b["dim"] for b in report["blocks"]] == [4, 2]
        assert report["sparsity"]["two_per_row_claim_holds"] is True
        m = np.array([[complex(re, im) for re, im in row]
                      for row in report["matrix"]])
        assert np.max(np.abs(m.conj().T @ m - np.eye(6))) <= 1e-12

    def test_dump_files(self, tmp_path):
        dump = tmp_path / "cg.json"
        code, _ = run(["cg", "--d", "2", "--lambda", "2,0", "--dump", str(dump)])
        assert code == 0
        assert json.loads(dump.read_text())["size"] == 6

    def test_dump_irrep_is_an_unknown_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run(["cg", "--d", "2", "--lambda", "2,0",
                 "--dump-irrep", str(tmp_path / "irrep.json")])
        assert e.value.code == 2
        assert "unrecognized arguments: --dump-irrep" in capsys.readouterr().err

    @pytest.mark.parametrize("d,lam,rows", [("3", "2,1", 2), ("2", "2,1,0", 3)])
    def test_row_count_must_match_d(self, d, lam, rows):
        code, out = run(["cg", "--d", d, "--lambda", lam])
        assert code == 1
        assert json.loads(out) == {
            "error": f"partition has {rows} rows, expected {d}"}


class TestResources:
    def test_two_level_bound_n2(self):
        code, out = run(["resources", "--n", "2", "--d", "2",
                         "--epsilon", "0.001"])
        assert code == 0
        report = json.loads(out)
        assert report["two_level_total"] == 8
        assert "not a synthesized circuit" in report["gate_model"]["note"]

    def test_csv_projection(self):
        _, js = run(["resources", "--n", "5", "--d", "2",
                     "--epsilon", "0.001"])
        _, csv = run(["resources", "--n", "5", "--d", "2",
                      "--epsilon", "0.001", "--format", "csv"])
        report = json.loads(js)
        lines = csv.strip().splitlines()
        assert lines[0] == "k,width,removal"
        for line, rec in zip(lines[1:], report["profile"]):
            k, width, removal = (int(x) for x in line.split(","))
            assert (k, width, bool(removal)) == \
                (rec["k"], rec["width"], rec["removal"])


class TestContract:
    def test_determinism(self, iid_file, zeros_file):
        for argv in (["dist", "--d", "2", "--stream", iid_file],
                     ["sample", "--d", "2", "--stream", zeros_file,
                      "--seed", "3"],
                     ["resources", "--n", "6", "--d", "2",
                      "--epsilon", "0.001"]):
            a = run(list(argv))
            b = run(list(argv))
            assert a == b

    def test_validation_error_exit_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([[1, 1]]))  # not normalized
        code, out = run(["sample", "--d", "2", "--stream", str(p)])
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command", ["dist", "full", "oracle"])
    def test_non_psd_exit_1(self, tmp_path, command):
        # Hermitian with trace 1, eigenvalues 1.5 and -0.5
        rho = [[1.5, 0], [0, -0.5]]
        if command == "dist":
            p = tmp_path / "stream.json"
            p.write_text(json.dumps({"iid": {"rho": rho, "n": 3}}))
            argv = ["dist", "--d", "2", "--stream", str(p)]
        else:
            p = tmp_path / "state.json"
            big = np.diag([1.5, -0.5, 0, 0]).tolist()
            p.write_text(json.dumps({"rho": big}))
            argv = (["full", "--d", "2", "--state", str(p)] if command == "full"
                    else ["oracle", "--d", "2", "--n", "2", "--state", str(p)])
        code, out = run(argv)
        assert code == 1
        assert "positive semidefinite" in json.loads(out)["error"]

    def test_malformed_json_exit_1(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _ = run(["dist", "--d", "2", "--stream", str(p)])
        assert code == 1

    @pytest.mark.parametrize("spec", [{"n": 3},
                                      {"rho": [[1, 0], [0, 0]]},
                                      5])
    def test_malformed_iid_exit_1(self, tmp_path, spec):
        p = tmp_path / "iid.json"
        p.write_text(json.dumps({"iid": spec}))
        code, out = run(["dist", "--d", "2", "--stream", str(p)])
        assert code == 1
        assert "iid" in json.loads(out)["error"]

    def test_guardrail_exit_2(self, tmp_path, monkeypatch):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"iid": {"rho": [[0.5, 0], [0, 0.5]],
                                         "n": 12}}))
        assert run(["dist", "--d", "2", "--stream", str(p)])[0] == 0
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 5 * _leaf_bytes(12))
        code, out = run(["dist", "--d", "2", "--stream", str(p)])
        assert code == 2
        assert "error" in json.loads(out)

    def test_full_fewer_amplitudes_than_d_exit_1(self, tmp_path):
        p = tmp_path / "one.json"
        p.write_text(json.dumps([1]))
        code, out = run(["full", "--d", "2", "--state", str(p)])
        assert code == 1
        assert "error" in json.loads(out)

    def test_cg_size_limit_exit_2_before_build(self, monkeypatch):
        monkeypatch.setattr(cg, "_cache", {})
        code, out = run(["cg", "--d", "3", "--lambda", "30,15,0"])  # size 12288
        assert code == 2
        assert "12288" in json.loads(out)["error"]
        assert cg._cache == {}

    def test_oracle_size_limit_exit_2(self):
        code, _ = run(["oracle", "--d", "2", "--n", "13"])
        assert code == 2

    @pytest.mark.parametrize("n", ["12", "13", "1000000000"])
    def test_oracle_unphysical_state_exit_1_over_the_limit(self, tmp_path, n):
        p = tmp_path / "state.json"
        p.write_text(json.dumps([1, 0]))
        code, out = run(["oracle", "--d", "2", "--n", n, "--state", str(p)])
        assert code == 1
        assert json.loads(out)["error"].startswith("state file: state length 2 != ")

    def test_closed_stdout_exits_quietly(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(__file__).parents[1] / "src"),
                        os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "schurstream.cli", "oracle", "--d", "2", "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # before the oracle's report is written
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err, err.decode()

    def test_schema_flag(self):
        code, out = run(["--schema"])
        assert code == 0
        schema = json.loads(out)
        assert "stream.json" in schema and "state.json" in schema


class TestRefusedInputs:
    @pytest.mark.parametrize("extra", [["--epsilon", "0"],
                                       ["--epsilon", "-1"],
                                       ["--epsilon", "2"],
                                       ["--epsilon", "0.1", "--c", "0"],
                                       ["--epsilon", "0.1", "--c", "inf"]])
    @pytest.mark.parametrize("d", ["2", "3"])
    def test_resources_bad_model_args_exit_1(self, d, extra):
        code, out = run(["resources", "--n", "5", "--d", d] + extra)
        assert code == 1
        assert "epsilon" in json.loads(out)["error"]

    # delta underflows to 0; delta > 1 gives a negative gate depth
    @pytest.mark.parametrize("extra", [["--epsilon", "5e-324"],
                                       ["--epsilon", "0.1", "--c", "1e-300"]])
    @pytest.mark.parametrize("d", ["2", "3"])
    def test_resources_delta_outside_unit_interval_exit_1(self, d, extra):
        code, out = run(["resources", "--n", "5", "--d", d] + extra)
        assert code == 1
        assert "delta" in json.loads(out)["error"]

    @pytest.mark.parametrize("p", ["0", "nan", "1000"])  # 1000 overflows
    def test_resources_bad_p_exit_1(self, p):
        code, out = run(["resources", "--n", "5", "--d", "3",
                         "--epsilon", "0.1", "--p", p])
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("p", ["300", "1000"])
    def test_resources_overflowing_p_exit_1(self, p):
        code, out = run(["resources", "--n", "3", "--d", "3",
                         "--epsilon", "0.01", "--p", p])
        assert code == 1
        assert json.loads(out)["error"].startswith(f"p = {float(p)!r} overflows the qudit gate model")

    @pytest.mark.parametrize("command", ["dist", "sample", "full", "oracle"])
    @pytest.mark.parametrize("form", ["vector", "rho"])
    def test_nan_state_exit_1(self, tmp_path, command, form):
        nan = float("nan")
        if command in ("dist", "sample"):
            stream = ([[nan, 0], [1, 0]] if form == "vector"
                      else {"iid": {"rho": [[nan, 0], [0, 1]], "n": 2}})
            p = tmp_path / "stream.json"
            p.write_text(json.dumps(stream))
            argv = [command, "--stream", str(p)]
        else:
            state = ({"vector": [nan, 0, 0, 1]} if form == "vector"
                     else {"rho": np.diag([nan, 0, 0, 1]).tolist()})
            p = tmp_path / "state.json"
            p.write_text(json.dumps(state))
            argv = (["full", "--state", str(p)] if command == "full"
                    else ["oracle", "--n", "2", "--state", str(p)])
        code, out = run(argv)
        assert code == 1
        assert "non-finite" in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["sample", "dist"])
    @pytest.mark.parametrize("bad,says", [
        ([1, 1], "state vector not normalized"),
        ({"rho": [[0.6, 0], [0, 0.5]]}, "density matrix trace != 1"),
    ], ids=["vector", "rho"])
    def test_unphysical_stream_element_is_named_exit_1(self, tmp_path, command, bad, says):
        p = tmp_path / "stream.json"
        p.write_text(json.dumps([[1, 0], [0, 1], [0.6, 0.8], bad, [1, 0]]))
        extra = ["--trials", "3"] if command == "sample" else []
        code, out = run([command, "--stream", str(p)] + extra)
        assert code == 1
        assert json.loads(out) == {"error": f"stream element 3: {says}"}

    @pytest.mark.parametrize("n,d", [(100, 80), (2, 330), (100, 77)])
    def test_resources_gate_model_past_float_range_exit_1(self, n, d):
        """n^(2d-1), the integral bound and M n, each past the float range."""
        code, out = run(["resources", "--n", str(n), "--d", str(d), "--epsilon", "0.99"])
        assert code == 1
        error = json.loads(out)["error"]
        assert "passes the float range" in error and "qudit gate model" in error

    def test_resources_model_refused_before_the_profile(self):
        """The gate model runs before the width profile's records, so a
        model past the float range is refused at once."""
        start = time.monotonic()
        code, out = run(["resources", "--n", "3000", "--d", "80", "--epsilon", "0.01"])
        assert time.monotonic() - start < 1
        assert code == 1
        assert json.loads(out) == {"error": "n^(2d-1) = 3000^159 passes the float range in "
                                            "the qudit gate model's delta = epsilon / "
                                            "(c d n^(2d-1))"}

    def test_resources_profile_budget_refused_before_the_model(self, monkeypatch):
        """The profile's budget check comes before the model's O(n) sum."""
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 10 ** 6)
        start = time.monotonic()
        code, out = run(["resources", "--n", "100000000", "--d", "3", "--epsilon", "0.1"])
        assert time.monotonic() - start < 1
        assert code == 2
        assert "resources profile of n=100000000" in json.loads(out)["error"]

    def test_sample_refuses_a_late_element_before_the_first_trial(self, tmp_path):
        """Every distinct array is checked before the first trial: 10^4
        valid qubits and one unnormalized one are refused at once."""
        p = tmp_path / "stream.json"
        p.write_text(json.dumps([[0.6, [0, 0.8]]] * 10 ** 4 + [[1, 1]]))
        start = time.monotonic()
        code, out = run(["sample", "--stream", str(p), "--trials", "3"])
        assert time.monotonic() - start < 1
        assert code == 1
        assert json.loads(out) == {"error": "stream element 10000: state vector not normalized"}

    def test_resources_d200_runs(self):
        code, out = run(["resources", "--n", "3", "--d", "200", "--epsilon", "0.01"])
        assert code == 0
        assert json.loads(out)["gate_model"]["d"] == 200

    @pytest.mark.parametrize("d", ["1", "0"])
    def test_full_d_below_2_exit_1(self, tmp_path, d):
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"vector": [0.5, 0.5, 0.5, 0.5]}))
        code, out = run(["full", "--d", d, "--state", str(p)])
        assert code == 1
        assert "d >= 2" in json.loads(out)["error"]

    def test_oracle_compare_length_mismatch_exit_1(self, zeros_file):
        code, out = run(["oracle", "--n", "2", "--compare", zeros_file])
        assert code == 1
        assert "--n 2" in json.loads(out)["error"]

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_sample_trials_below_1_exit_1(self, zeros_file, trials):
        code, out = run(["sample", "--stream", zeros_file, "--trials", trials])
        assert code == 1
        assert "trials" in json.loads(out)["error"]

    @pytest.mark.parametrize("prune", ["nan", "inf", "-1", "1", "2"])
    @pytest.mark.parametrize("command", ["dist", "full"])
    def test_prune_outside_unit_interval_exit_1(self, tmp_path, zeros_file,
                                                 command, prune):
        if command == "dist":
            argv = ["dist", "--stream", zeros_file]
        else:
            p = tmp_path / "state.json"
            p.write_text(json.dumps({"vector": [1, 0, 0, 0]}))
            argv = ["full", "--state", str(p)]
        code, out = run(argv + ["--prune", prune])
        assert code == 1
        assert "prune" in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["sample", "dist", "full"])
    @pytest.mark.parametrize("state,match", [
        ([True, False], "bad amplitude entry True"),
        ({"vector": [[True, False], [0, 0]]}, "bad amplitude entry [True, False]"),
        ({"rho": [[False, 0], [0, True]]}, "bad amplitude entry False"),
        ({"vector": {"rho": [[0.5, 0], [0, 0.5]]}}, "expected a non-empty list"),
        ({"rho": {"vector": [1, 0]}}, "expected a non-empty list"),
        ({"rho": [[1, 0], [0]]}, "rows differ in length: [2, 1]"),
        (["1", 0], "bad amplitude entry '1'"),
        ([[1, 0, 0], [0, 0]], "bad amplitude entry [1, 0, 0]"),
        ([[1, 0], [0, "0"]], "bad amplitude entry [0, '0']"),
        ([1, None], "bad amplitude entry None"),
        ([[1, 0], 0, True], "bad amplitude entry True"),
        ({"rho": [[1, 0], 0]}, "each density matrix row must be a non-empty list"),
    ], ids=["bool-entries", "bool-pair", "bool-rho", "dict-under-vector",
            "dict-under-rho", "ragged-rho", "string-entry", "long-pair",
            "string-in-pair", "null-entry", "bool-after-mix", "rho-row-not-a-list"])
    def test_malformed_state_exit_1(self, tmp_path, command, state, match):
        """Each of these was read as a state, or refused with numpy's text;
        the error names the input it is in."""
        p = tmp_path / "input.json"
        if command == "full":  # one qubit: a state of size 2 = 2^1
            p.write_text(json.dumps(state))
            argv, where = ["full", "--state", str(p)], "state file: "
        else:
            p.write_text(json.dumps([[1, 0], state]))
            argv, where = [command, "--stream", str(p)], "stream element 1: "
        code, out = run(argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error.startswith(where)
        assert match in error

    @pytest.mark.parametrize("data,matrix", [
        ([0.6, -0.0, 1, 2.5e-300], False),
        ([[0.6, 0], [-0.0, 0.8], [1, -2]], False),
        ([[0.6, 0], 1, [0, -0.25]], False),  # numbers and pairs mixed
        ([[0.5, 0], [0, 0.5]], True),
        ([[[0.5, 0], [0, -0.1]], [[0, 0.1], [0.5, 0]]], True),
        ([[0.5, [0, -0.1]], [[0, 0.1], 0.5]], True),
    ], ids=["numbers", "pairs", "mixed", "rho-numbers", "rho-pairs", "rho-mixed"])
    def test_parse_equals_the_entry_by_entry_read(self, data, matrix):
        """The whole-list read gives the array that reading each entry with
        _complex_entry gives, bit for bit."""
        want = (np.array([[cli._complex_entry(x) for x in row] for row in data]) if matrix
                else np.array([cli._complex_entry(x) for x in data]))
        got = cli._parse_array(data, matrix=matrix)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("command", ["sample", "dist"])
    @pytest.mark.parametrize("rho,match", [
        ([[1, 0], [0]], "rows differ in length"),
        ([[True, 0], [0, False]], "bad amplitude entry True"),
        ({"rho": [[1, 0], [0, 0]]}, "expected a non-empty list"),
    ], ids=["ragged", "bool", "dict"])
    def test_malformed_iid_rho_exit_1(self, tmp_path, command, rho, match):
        p = tmp_path / "stream.json"
        p.write_text(json.dumps({"iid": {"rho": rho, "n": 2}}))
        code, out = run([command, "--stream", str(p)])
        assert code == 1
        error = json.loads(out)["error"]
        assert error.startswith("iid rho: ")
        assert match in error

    @pytest.mark.parametrize("command", ["full", "oracle"])
    def test_limit_is_an_unknown_option(self, tmp_path, capsys, command):
        """The memory budget is the one guard; no option replaces it."""
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"vector": [1] + [0] * 7}))
        argv = (["full", "--state", str(p)] if command == "full"
                else ["oracle", "--n", "3"])
        with pytest.raises(SystemExit) as e:
            run(argv + ["--limit", "3"])
        assert e.value.code == 2
        assert "unrecognized arguments: --limit 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command,data", [
        ("sample", [{"rho": [1, 0]}]),
        ("dist", [{"rho": [1, 0]}]),
        ("sample", {"iid": {"rho": [1, 0], "n": 3}}),
        ("dist", {"iid": {"rho": [1, 0], "n": 3}}),
        ("full", {"rho": [0.5, 0.5]}),
        ("oracle", {"rho": [0.5, 0.5]}),
        ("full", {"rho": [[1, 0], 0]}),
        ("sample", [{"rho": [[1, 0], 0]}]),
    ], ids=["stream-element-sample", "stream-element-dist", "iid-sample", "iid-dist",
            "full-state", "oracle-state", "full-row", "stream-row"])
    def test_rho_row_not_a_list_exit_1(self, tmp_path, command, data):
        p = tmp_path / "input.json"
        p.write_text(json.dumps(data))
        argv = ([command, "--stream", str(p)] if command in ("dist", "sample")
                else ["full", "--state", str(p)] if command == "full"
                else ["oracle", "--n", "1", "--state", str(p)])
        code, out = run(argv)
        assert code == 1
        assert "row" in json.loads(out)["error"]


class TestQubitRotations:
    """d=2 steps apply the CG transform as its rotations."""

    def test_runs_form_no_dense_matrix(self, tmp_path, monkeypatch, iid_file):
        """With the dense d=2 former patched to raise, `sample`, `dist` and
        `full` (on a vector and on a density matrix) still run, as do
        register mode and a density-matrix `step`."""
        def dense(t):
            raise AssertionError(f"dense d=2 matrix formed at lambda={t.lam}")

        monkeypatch.setattr(cg, "_qubit_matrix", dense)
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(cg, "_cache_bytes", 0)
        with pytest.raises(AssertionError, match="dense d=2"):
            cg.cg_transform(Partition((3, 1))).matrix
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({"rho": (np.eye(8) / 8).tolist()}))
        data = Path(__file__).parent / "data"
        for argv in (["sample", "--stream", str(data / "qubits.json"), "--trials", "3"],
                     ["sample", "--stream", str(data / "iid.json")],
                     ["dist", "--stream", str(data / "qubits.json")],
                     ["dist", "--stream", iid_file],
                     ["full", "--state", str(data / "state.json")],
                     ["full", "--state", str(rho)]):
            code, out = run(argv)
            assert code == 0, (argv, out)
        qubits = [np.array([0.6, 0.8j]), np.array([1, 0]), np.array([0.6, -0.8])] * 3
        assert sum(register_branch_distribution(qubits).entries.values()) == pytest.approx(1.0)
        state = init_state(np.eye(2) / 2, 2)
        for _ in range(6):
            state, _, _ = step(state, np.array([[0.7, 0.1], [0.1, 0.3]]))

    def test_sample_of_ten_thousand_qubits(self, tmp_path):
        """10^4 copies of (0.6, 0.8i): the symmetric state, so lambda =
        (10^4, 0) on the all-zero path.  The dense build estimate refused
        this stream at lambda = (2864, 0)."""
        p = tmp_path / "skewed.json"
        p.write_text(json.dumps([[0.6, [0, 0.8]]] * 10 ** 4))
        code, out = run(["sample", "--stream", str(p)])
        assert code == 0, out
        report = json.loads(out)
        assert report["lambda"] == "10000,0"
        assert report["path"] == ",".join(["0"] * (10 ** 4 - 1))


class TestQuditRows:
    """d >= 3 steps apply the CG transform as its sparse rows."""

    def test_runs_form_no_dense_matrix(self, tmp_path, monkeypatch):
        """With the dense d >= 3 former patched to raise, `sample` (on
        vectors and on density matrices), `dist` (on vectors and on
        density matrices) and `full` (on a vector and on a density matrix)
        at d=3 still run, as does a d=3 density-matrix `step`."""
        def dense(t):
            raise AssertionError(f"dense d>=3 matrix formed at lambda={t.lam}")

        monkeypatch.setattr(cg, "_sparse_matrix", dense)
        monkeypatch.setattr(cg, "_cache", {})
        monkeypatch.setattr(cg, "_cache_bytes", 0)
        with pytest.raises(AssertionError, match="dense d>=3"):
            cg.cg_transform(Partition((2, 1, 0))).matrix
        iid = tmp_path / "iid_d3.json"
        iid.write_text(json.dumps({"iid": {"rho": (np.eye(3) / 3).tolist(), "n": 4}}))
        rho = tmp_path / "rho_d3.json"
        rho.write_text(json.dumps({"rho": (np.eye(27) / 27).tolist()}))
        data = Path(__file__).parent / "data"
        for argv in (["sample", "--stream", str(data / "qutrits.json"), "--trials", "3"],
                     ["sample", "--stream", str(iid)],
                     ["dist", "--stream", str(data / "qutrits.json")],
                     ["dist", "--stream", str(iid)],
                     ["full", "--state", str(data / "state_d3.json")],
                     ["full", "--state", str(rho)]):
            code, out = run(argv[:1] + ["--d", "3"] + argv[1:])
            assert code == 0, (argv, out)
        state = init_state(np.eye(3) / 3, 3)
        for _ in range(5):
            state, _, _ = step(state, np.diag([0.5, 0.3, 0.2]).astype(complex))

    @pytest.mark.parametrize("d,n", [(3, 100), (4, 30)])
    def test_sample_of_skewed_qudits(self, tmp_path, d, n):
        """n copies of (0.6, 0.8i, 0, ...): the symmetric state, so lambda =
        (n, 0, ...) on the all-zero path.  The dense build estimate refused
        these streams at lambda = (61, 0, 0) and (19, 0, 0, 0)."""
        p = tmp_path / "skewed.json"
        p.write_text(json.dumps([[0.6, [0, 0.8]] + [0] * (d - 2)] * n))
        code, out = run(["sample", "--d", str(d), "--stream", str(p)])
        assert code == 0, out
        report = json.loads(out)
        assert report["lambda"] == ",".join([str(n)] + ["0"] * (d - 1))
        assert report["path"] == ",".join(["0"] * (n - 1))
