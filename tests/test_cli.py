"""Command-line contract: output schemas, exit codes, determinism."""

import json

import numpy as np
import pytest

from schurstream import cg, cli, errors
from schurstream.cli import run
from schurstream.sampler import _leaf_bytes

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


class TestSample:
    def test_symmetric_stream(self, zeros_file):
        code, out = run(["sample", "--d", "2", "--stream", zeros_file,
                         "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["lambda"] == "5,0"
        assert report["path"] == "0,0,0,0"

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

    def test_csv_compare_checks_length_without_enumerating(self, iid_file,
                                                           zeros_file, monkeypatch):
        def enumerate_(*args, **kwargs):
            raise AssertionError("the CSV report holds no sampler marginal")

        monkeypatch.setattr(cli, "branch_distribution", enumerate_)
        argv = ["oracle", "--n", "3", "--format", "csv", "--compare"]
        assert run(argv + [iid_file])[0] == 0
        code, out = run(argv + [zeros_file])
        assert code == 1
        assert "--n 3" in json.loads(out)["error"]


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
        irrep = tmp_path / "irrep.json"
        code, _ = run(["cg", "--d", "2", "--lambda", "2,0",
                       "--dump", str(dump), "--dump-irrep", str(irrep)])
        assert code == 0
        assert json.loads(dump.read_text())["size"] == 6
        assert json.loads(irrep.read_text())["lambda"] == "2,0"

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
        code, _ = run(["oracle", "--d", "2", "--n", "12"])
        assert code == 2

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

    @pytest.mark.parametrize("command", ["full", "oracle"])
    @pytest.mark.parametrize("limit", ["0", "-1", "-5"])
    def test_limit_below_1_exit_1(self, tmp_path, command, limit):
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"vector": [1] + [0] * 7}))
        argv = (["full", "--state", str(p)] if command == "full"
                else ["oracle", "--n", "3"])
        code, out = run(argv + ["--limit", limit])
        assert code == 1
        assert "limit" in json.loads(out)["error"]
