"""Command-line interface: exit codes, artifacts, reports, corruption handling."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import subexp_wavelets as sw
from subexp_wavelets import cli, construction


@pytest.fixture(scope="module")
def system_file(ws, tmp_path_factory):
    """Reference system serialized once for all CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "system.json"
    with open(path, "w") as fh:
        json.dump(ws.to_json_dict(), fh, sort_keys=True)
    return str(path)


def _tampered(system_file, tmp_path, tamper):
    """Copy of the reference file after ``tamper(doc)``; returns its path."""
    with open(system_file) as fh:
        doc = json.load(fh)
    tamper(doc)
    path = tmp_path / "tampered.json"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def _scale_psi_samples(doc):
    doc["psi_samples"]["re"] = (1.01 * np.asarray(doc["psi_samples"]["re"])).tolist()


def _raise_psi_samples(doc):
    doc["psi_samples"]["re"] = (np.asarray(doc["psi_samples"]["re"]) + 2e-5).tolist()


def _nudge_psi_sample(doc):
    # psi(0), the middle sample, moved by 1e-12
    samples = doc["psi_samples"]["re"]
    samples[len(samples) // 2] += 1e-12


def _read_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    assert set(doc) == {"metadata", "report"}
    return doc["report"]


class TestBuild:
    def test_build_writes_artifacts(self, tmp_path):
        out = tmp_path / "sys.json"
        code = cli.main(["build", "--out", str(out)])
        assert code == cli.EXIT_OK
        assert out.exists()
        assert (tmp_path / "sys.psi.csv").exists()
        assert (tmp_path / "sys.phi.csv").exists()
        summary = _read_report(tmp_path / "sys.certificates.json")
        assert all(summary["certificates"].values())

    def test_invalid_width_is_config_error(self, tmp_path):
        code = cli.main(["build", "--a", "1.2",
                         "--out", str(tmp_path / "bad.json")])
        assert code == cli.EXIT_CONFIG_ERROR


class TestVerify:
    def test_all_suites_pass(self, system_file, tmp_path):
        report = tmp_path / "verify.json"
        code = cli.main(["verify", "--system", system_file,
                         "--report", str(report)])
        assert code == cli.EXIT_OK
        doc = _read_report(report)
        assert all(suite["pass"] for suite in doc["suites"].values())
        assert doc["suites"]["support"]["bell_max_off_support"] == 0.0

    def test_forms_psi_band_alone(self, system_file, tmp_path, monkeypatch):
        # samples rebuilds psi's samples from psi's band, formed once; no
        # suite reads phi's band (polynomial and kernel-decay read phi's
        # wide table, of its own node count)
        calls = []
        band = construction.WaveletSystem.band_spectrum
        monkeypatch.setattr(construction.WaveletSystem, "band_spectrum",
                            lambda ws, *a: calls.append(a) or band(ws, *a))
        code = cli.main(["verify", "--system", system_file,
                         "--report", str(tmp_path / "verify.json")])
        assert code == cli.EXIT_OK
        assert calls == [("psi", construction._TABLE_BAND_POINTS),
                         ("phi", construction._WIDE_BAND_POINTS)]

    def test_unknown_suite_is_config_error(self, system_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--system", system_file, "--suite", "frobnicate"])
        assert exc.value.code == cli.EXIT_CONFIG_ERROR
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_corrupt_json_is_io_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("this is not a stored system")
        code = cli.main(["verify", "--system", str(bad)])
        assert code == cli.EXIT_IO_ERROR

    def test_json_other_than_an_object_is_io_error(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert cli.main(["verify", "--system", str(bad)]) == cli.EXIT_IO_ERROR

    def test_missing_file_is_io_error(self, tmp_path):
        code = cli.main(["verify", "--system", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_IO_ERROR

    def test_other_schema_is_io_error(self, system_file, tmp_path, capsys):
        # a file of a former schema is rebuilt, not read
        for schema in ("dhws-v1", "dhws-v2", "dhws-v3"):
            tampered = _tampered(system_file, tmp_path,
                                 lambda doc: doc.update(schema=schema))
            code = cli.main(["verify", "--system", tampered])
            assert code == cli.EXIT_IO_ERROR
            err = capsys.readouterr().err
            assert f"'{schema}'" in err and "rebuild" in err

    @pytest.mark.parametrize("tamper", [
        lambda doc: doc["psi_samples"]["re"].pop(),
        # the samples are rebuilt on their grid, which only a sample grid
        # [-k/64, k/64] at spacing 1/64 allows
        lambda doc: doc["psi_samples"]["grid"].update(origin=-39.5),
        # the spectra are rebuilt from the parameters: a width a >= pi/3 or
        # an order rho2 <= 1 has none
        lambda doc: doc["parameters"].update(a=1.2),
        lambda doc: doc["parameters"].update(rho2=1.0),
    ], ids=["short-samples", "off-grid-samples", "refused-width", "refused-order"])
    def test_malformed_array_is_io_error(self, system_file, tmp_path, capsys,
                                         tamper):
        tampered = _tampered(system_file, tmp_path, tamper)
        assert cli.main(["verify", "--system", tampered]) == cli.EXIT_IO_ERROR
        assert "cannot read system file" in capsys.readouterr().err

    @pytest.mark.parametrize("suite, tamper", [
        ("samples", _scale_psi_samples),
    ], ids=["samples"])
    def test_tampered_file_fails_its_suite(self, system_file, tmp_path,
                                           suite, tamper):
        tampered = _tampered(system_file, tmp_path, tamper)
        code = cli.main(["verify", "--system", tampered, "--suite", suite])
        assert code == cli.EXIT_CHECK_FAILURE

    @pytest.mark.parametrize("window", ["0.05", "5", "10", "20", "40", "300"])
    def test_verify_passes_what_build_certified(self, tmp_path, capsys, window):
        # a file build wrote at any window verifies, and a sample moved by
        # 1e-12, by +2e-5 or by a factor 1.01 fails; --window 0.05 snaps to
        # 3/64 and stores 7 samples
        out = str(tmp_path / "s.json")
        assert cli.main(["build", "--window", window, "--out", out]) == cli.EXIT_OK
        if window == "0.05":
            with open(out) as fh:
                assert json.load(fh)["psi_samples"]["grid"] == {
                    "origin": -3 / 64, "spacing": 1 / 64, "count": 7}
        assert cli.main(["verify", "--system", out]) == cli.EXIT_OK
        tampered = _tampered(out, tmp_path, _nudge_psi_sample)
        assert cli.main(["verify", "--system", tampered]) == cli.EXIT_CHECK_FAILURE
        for tamper in (_raise_psi_samples, _scale_psi_samples):
            tampered = _tampered(out, tmp_path, tamper)
            code = cli.main(["verify", "--system", tampered, "--suite", "samples"])
            assert code == cli.EXIT_CHECK_FAILURE
        capsys.readouterr()


class TestDecay:
    def test_report_matches_library_fit(self, ws, system_file, tmp_path):
        report = tmp_path / "decay.json"
        code = cli.main(["decay", "--system", system_file,
                         "--report", str(report)])
        doc = _read_report(report)
        fit = doc["fit"]
        # same computation through the library entry points
        table = sw.decay_profile(ws, 40.0)
        want = sw.subexp_decay_fit(table[table[:, 0] >= 5.0], "free")
        assert abs(fit["exponent"] - want.exponent) < 1e-12
        assert abs(fit["rate_c"] - want.rate_c) < 1e-9
        in_band = 0.40 <= fit["exponent"] <= 0.60 and fit["r_squared"] > 0.9
        assert code == (cli.EXIT_OK if in_band else cli.EXIT_CHECK_FAILURE)

    def test_fixed_mode_passes(self, system_file, tmp_path):
        report = tmp_path / "decay_fixed.json"
        code = cli.main(["decay", "--system", system_file,
                         "--exponent", "fixed", "--report", str(report)])
        assert code == cli.EXIT_OK
        doc = _read_report(report)
        assert doc["fit"]["exponent"] == 0.5
        assert doc["fit"]["r_squared"] > 0.9

    def test_phi_fit_matches_the_fit_of_the_point_values(self, ws, system_file,
                                                         tmp_path):
        # the fit reads phi at the points i / 32 of [5, 40]; phi's point
        # values on the same points give the same fit
        report = tmp_path / "decay_phi.json"
        code = cli.main(["decay", "--system", system_file, "--target", "phi",
                         "--exponent", "fixed", "--report", str(report)])
        assert code == cli.EXIT_OK
        fit = _read_report(report)["fit"]
        x = np.arange(5 * 32, 40 * 32 + 1) / 32
        want = sw.subexp_decay_fit(np.column_stack([x, np.abs(ws.evaluate_phi(x))]),
                                   "fixed", rho=ws.rho2).to_json_dict()
        assert fit["n_envelope_points"] == want["n_envelope_points"]
        for key in ("amplitude_C", "rate_c", "r_squared"):
            assert fit[key] == pytest.approx(want[key], rel=1e-9, abs=0.0), key

    def test_psi_range_reaches_past_the_stored_window(self, system_file, tmp_path):
        # the fit reads the dense table, on [0, 264], not the stored samples
        report = tmp_path / "decay_100.json"
        code = cli.main(["decay", "--system", system_file, "--range", "5,100",
                         "--exponent", "fixed", "--report", str(report)])
        assert code == cli.EXIT_OK
        assert _read_report(report)["range"] == [5.0, 100.0]

    def test_range_past_the_table_is_refused_whatever_the_window(self, tmp_path,
                                                                 capsys):
        # a window of 300 stores samples past the table's 264, where it
        # reads literal zeros
        system = str(tmp_path / "w300.json")
        assert cli.main(["build", "--window", "300", "--out", system]) == cli.EXIT_OK
        capsys.readouterr()
        code = cli.main(["decay", "--system", system, "--range", "5,300",
                         "--exponent", "fixed"])
        assert code == cli.EXIT_CONFIG_ERROR
        assert "outside [0, 264], the psi table" in capsys.readouterr().err


class TestProjectExpand:
    def test_project_monotone(self, system_file, tmp_path):
        report = tmp_path / "project.json"
        code = cli.main(["project", "--system", system_file,
                         "--levels", "0..2", "--window", "12",
                         "--report", str(report)])
        assert code == cli.EXIT_OK
        doc = _read_report(report)
        assert doc["monotone_trend"] and doc["seminorms_bounded_3x"]
        errs = [row["sup_error"] for row in doc["rows"]]
        assert errs[-1] < 1e-6

    @pytest.mark.parametrize("h", ["1e200", "1e154"])
    def test_overflowing_seminorm_is_refused(self, system_file, tmp_path, capsys, h):
        # h^2 (at 1e200) or its product with the decay weight (at 1e154)
        # overflows: no row reads an infinite seminorm as bounded
        report = tmp_path / "project.json"
        code = cli.main(["project", "--system", system_file, "--levels", "0",
                         "--h", h, "--report", str(report)])
        assert code == cli.EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--h" in err and "--max-beta" in err
        assert not report.exists()

    def test_expand_with_parseval(self, system_file, tmp_path):
        report = tmp_path / "expand.json"
        out = tmp_path / "coeffs.csv"
        code = cli.main(["expand", "--system", system_file, "--parseval",
                         "--out", str(out), "--report", str(report)])
        assert code == cli.EXIT_OK
        doc = _read_report(report)
        assert doc["parseval"]["gap"] < 1e-5
        assert out.exists()
        assert (tmp_path / "coeffs.csv.header.json").exists()

    def test_parseval_command(self, system_file, tmp_path):
        report = tmp_path / "parseval.json"
        code = cli.main(["parseval", "--system", system_file,
                         "--window", "4,16", "--report", str(report)])
        doc = _read_report(report)
        assert code == (cli.EXIT_OK if doc["gap"] < 1e-5
                        else cli.EXIT_CHECK_FAILURE)


class TestReport:
    def test_deterministic_report_body(self, system_file, tmp_path):
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            assert cli.main(["report", "--system", system_file,
                             "--report", str(p)]) == cli.EXIT_OK
        r1, r2 = (_read_report(p) for p in paths)
        assert r1 == r2
        assert r1["certificates"]

    def test_metadata_records_versions(self, system_file, tmp_path, monkeypatch):
        monkeypatch.setenv("MKL_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        path = tmp_path / "r.json"
        assert cli.main(["report", "--system", system_file,
                         "--report", str(path)]) == cli.EXIT_OK
        with open(path) as fh:
            meta = json.load(fh)["metadata"]
        assert meta["package_version"] == sw.__version__
        assert meta["numpy_version"] == np.__version__
        assert meta["python_version"] == platform.python_version()
        assert "generated_at" in meta
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert meta["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": "3"}

    def test_unknown_config_key_rejected(self, system_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus_option": 1}))
        code = cli.main(["report", "--system", system_file,
                         "--config", str(cfg)])
        assert code == cli.EXIT_CONFIG_ERROR


def _config(tmp_path, entries):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(entries))
    return str(path)


class TestConfig:
    """A config file's entries are parsed as the flags they name."""

    def test_switch_set_from_config(self, system_file, tmp_path):
        report = tmp_path / "expand.json"
        code = cli.main(["expand", "--system", system_file, "--window", "2,8",
                         "--config", _config(tmp_path, {"parseval": True}),
                         "--report", str(report)])
        doc = _read_report(report)
        assert doc["parseval"]["gap"] >= 0.0
        assert code == (cli.EXIT_OK if doc["parseval"]["gap"] < 1e-5
                        else cli.EXIT_CHECK_FAILURE)

    def test_bad_choice_fails_like_the_flag(self, system_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as flag:
            cli.main(["decay", "--system", system_file, "--target", "bogus"])
        flag_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as config:
            cli.main(["decay", "--system", system_file, "--config",
                      _config(tmp_path, {"target": "bogus"})])
        assert flag.value.code == config.value.code == cli.EXIT_CONFIG_ERROR
        assert "invalid choice: 'bogus'" in flag_err
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_value_gets_the_flag_type(self, tmp_path):
        out = tmp_path / "sys.json"
        code = cli.main(["build", "--out", str(out),
                         "--config", _config(tmp_path, {"a": "0.9"})])
        assert code == cli.EXIT_OK
        summary = _read_report(tmp_path / "sys.certificates.json")
        assert summary["parameters"]["a"] == 0.9

    def test_number_parsed_as_written_on_the_command_line(self, system_file,
                                                          tmp_path):
        report = tmp_path / "project.json"
        code = cli.main(["project", "--system", system_file, "--report",
                         str(report), "--config",
                         _config(tmp_path, {"levels": 1, "window": 12})])
        assert code == cli.EXIT_OK
        assert [row["m"] for row in _read_report(report)["rows"]] == [1]

    def test_explicit_flag_wins(self, system_file, tmp_path):
        report = tmp_path / "expand.json"
        code = cli.main(["expand", "--system", system_file, "--window", "1,2",
                         "--config", _config(tmp_path, {"window": "2,8"}),
                         "--report", str(report)])
        assert code == cli.EXIT_OK
        assert _read_report(report)["window"] == {"M": 1, "N": 2}

    @pytest.mark.parametrize("command, key, value", [
        ("decay", "range", "5"), ("project", "levels", "3..1")],
        ids=["range", "levels"])
    def test_bad_value_rejected_by_its_flag_type(self, system_file, tmp_path,
                                                 command, key, value, capsys):
        with pytest.raises(SystemExit) as config:
            cli.main([command, "--system", system_file,
                      "--config", _config(tmp_path, {key: value})])
        assert config.value.code == cli.EXIT_CONFIG_ERROR
        assert f"argument --{key}" in capsys.readouterr().err


def _exit_code(argv):
    """``cli.main``'s return value, or the ``SystemExit`` code of an
    argparse error; any other exception escapes and fails the test."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# bad command lines, each with the exit code it must give: 2 for a bad flag,
# config value or input, 3 for an output that cannot be written
_BAD_COMMAND_LINES = [
    ("decay --system {system} --range 5", 2),
    ("decay --system {system} --range abc,5", 2),
    ("decay --system {system} --range 5,500", 2),
    ("decay --system {system} --target phi --range 5,1000", 2),
    ("decay --system {system} --target phi --range 300,1000", 2),
    ("decay --system {system} --range=-5,-1", 2),
    ("decay --system {system} --target phi --range=-5,-1", 2),
    ("project --system {system} --levels 0..2 --window 0.001", 2),
    ("project --system {system} --window -3", 2),
    ("project --system {system} --levels 3..1", 2),
    ("project --system {system} --levels 40", 2),
    ("project --system {system} --levels 20", 2),
    ("project --system {system} --window nan", 2),
    ("project --system {system} --window inf", 2),
    ("project --system {system} --window 1e300", 2),
    ("project --system {system} --max-beta -1", 2),
    ("project --system {system} --max-beta 61", 2),
    ("project --system {system} --levels 2000", 2),
    ("project --system {system} --levels 5..8", 2),
    ("project --system {system} --h nan", 2),
    ("project --system {system} --c inf", 2),
    ("expand --system {system} --window 7,32", 2),
    ("parseval --system {system} --window 7,32", 2),
    ("expand --system {system} --f bogus", 2),
    ("parseval --system {system} --g bogus", 2),
    ("expand --system {system} --f gevrey-band:2,1", 2),
    ("expand --system {system} --f gevrey-band:pi,2pi,inf", 2),
    ("expand --system {system} --f gevrey-band:pi,inf", 2),
    ("expand --system {system} --f gevrey-band:.pi,2pi", 2),
    ("expand --system {system} --f gaussian:0,0", 2),
    ("expand --system {system} --f gaussian:inf,1", 2),
    ("expand --system {system} --f gaussian:nan,1", 2),
    ("expand --system {system} --f gaussian:0,1,7", 2),
    ("expand --system {system} --f gaussian-d2:5,7", 2),
    ("build --out {tmp}/x.json --window 0", 2),
    ("build --out {tmp}/x.json --window 0.001", 2),
    ("build --out {tmp}/x.json --window nan", 2),
    ("build --out {tmp}/x.json --window 1e300", 2),
    ("build --out {tmp}/x.json --rho2 inf", 2),
    ("verify --system {system} --report {tmp}/missing/r.json", 3),
    ("build --out {tmp}/missing/s.json", 3),
    ("expand --system {system} --out {tmp}/missing/c.csv", 3),
]


@pytest.mark.parametrize("line, code", _BAD_COMMAND_LINES, ids=[
    line.replace(" --system {system}", "").replace("{tmp}/", "")
    for line, _ in _BAD_COMMAND_LINES])
def test_bad_command_line_exit_code(system_file, tmp_path, capsys, line, code):
    argv = [token.format(system=system_file, tmp=tmp_path)
            for token in line.split()]
    assert _exit_code(argv) == code
    assert "error:" in capsys.readouterr().err


def test_cli_imports_no_scipy():
    # every command runs in a cold process, which pays for each import; the
    # package needs numpy alone
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(sw.__file__)))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, subexp_wavelets.cli; print(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("rho2", [1.5, 2.0, 2.5, 3.0])
def test_every_command_at_each_gevrey_order(rho2, tmp_path, capsys):
    # each command exits 0 with its report, except where the order's phi
    # tail is too heavy for the projections (rho2 = 3): verify and project
    # then refuse the order with exit 2, naming it, and write no report
    system = str(tmp_path / "s.json")
    assert cli.main(["build", "--rho2", str(rho2), "--out", system]) == cli.EXIT_OK
    refused = rho2 > 2.8
    for argv in (["verify"], ["project", "--levels", "0..6"], ["expand", "--parseval"]):
        report = tmp_path / f"{argv[0]}.json"
        capsys.readouterr()
        code = cli.main(argv + ["--system", system, "--report", str(report)])
        if refused and argv[0] != "expand":
            assert code == cli.EXIT_CONFIG_ERROR
            assert f"rho2 = {rho2:g}" in capsys.readouterr().err
            assert not report.exists()
        else:
            assert code == cli.EXIT_OK
            assert _read_report(report)["certificate_digest"]
