import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oracles
import spherewave
from spherewave import cli, harmonics, harness
from spherewave.__main__ import BLAS_THREAD_VARIABLES
from spherewave import io as spherewave_io
from spherewave.cli import PRESETS, build_parser, main, resolve_config
from spherewave.io import read_coefficient_csv, write_coefficient_csv
from spherewave.harness import ExperimentConfig
from spherewave.modes import CoefficientField, mode_count, mode_degrees


def run_cli(*argv):
    return main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_named_presets_exist():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "weak-norm2",
                 "weak-expnorm2", "weak-oracle", "sch-fig7", "dsphere-d4"):
        assert name in PRESETS


def test_flag_overrides_preset(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["convergence", "--preset", "fig1", "--seed", "42",
                              "--samples", "7", "--output", str(tmp_path)])
    cfg = resolve_config(args)
    assert cfg.alpha == 3.0  # from the preset
    assert cfg.seed == 42 and cfg.samples == 7  # overridden


def test_config_file_layering(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"alpha": 2.5, "kappas": [2, 4, 8, 16], "kappa_ref": 32,
                                    "samples": 3, "seed": 11}))
    parser = build_parser()
    args = parser.parse_args(["convergence", "--config", str(cfg_path),
                              "--samples", "5", "--output", str(tmp_path)])
    cfg = resolve_config(args)
    assert cfg.alpha == 2.5 and cfg.samples == 5 and cfg.kappas == [2, 4, 8, 16]


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"alhpa": 3.0}))
    code = run_cli("convergence", "--config", str(cfg_path), "--output", str(tmp_path))
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_invalid_experiment_config_exits_nonzero(tmp_path, capsys):
    code = run_cli("convergence", "--kappas", "2,4,8", "--kappa-ref", "8",
                   "--output", str(tmp_path))
    assert code == 1
    assert "kappa_ref" in capsys.readouterr().err


def test_debug_flag_re_raises_after_the_error_line(tmp_path, capsys):
    argv = ["convergence", "--kappas", "2,4,8", "--kappa-ref", "8", "--output", str(tmp_path)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(ValueError, match="kappa_ref"):
        run_cli(*argv, "--debug")
    assert capsys.readouterr().err.startswith("error: ")


def test_convergence_writes_tables_with_metadata(tmp_path):
    out = tmp_path / "run"
    code = run_cli("convergence", "--preset", "fig1", "--samples", "5",
                   "--output", str(out))
    assert code == 0
    for comp in ("position", "velocity"):
        csv_path = out / f"convergence_{comp}.csv"
        json_path = out / f"convergence_{comp}.json"
        assert csv_path.exists() and json_path.exists()
        text = csv_path.read_text()
        assert text.startswith("#")
        for key in ("alpha=3.0", "kappa_ref=64", "samples=5", "seed=1001",
                    "theory_slope", "fit_kappas"):
            assert key in text
        assert "kappa,error,stderr" in text
        payload = json.loads(json_path.read_text())
        assert payload["kappas"] == [2, 4, 8, 16, 32]
        assert len(payload["errors"]) == 5


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("convergence", "--preset", "fig1", "--samples", "4",
                       "--output", str(out)) == 0
    for comp in ("position", "velocity"):
        for ext in (".csv", ".json"):
            assert read(a / f"convergence_{comp}{ext}") == read(b / f"convergence_{comp}{ext}")


def test_grid_field_metadata_records_resolved_resolution(tmp_path):
    # the written n_theta/n_phi are the actual grid sizes, not unresolved config
    out = tmp_path / "sim"
    assert run_cli("simulate", "--alpha", "3", "--kappa-ref", "8", "--seed", "1",
                   "--output", str(out)) == 0
    text = (out / "final_field.csv").read_text()
    assert "# n_theta=9" in text and "# n_phi=18" in text
    assert "n_theta=None" not in text


def test_simulate_writes_trajectory_and_field(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--alpha", "3", "--kappa-ref", "8", "--steps", "4",
                   "--seed", "3", "--output", str(out))
    assert code == 0
    traj = (out / "trajectory.csv").read_text()
    assert "# t=0.0 kappa=8 d=3 seed=3" in traj
    assert "# t=1.0 kappa=8 d=3 seed=3" in traj
    assert "# field=position" in traj and "# field=velocity" in traj
    field = (out / "final_field.csv").read_text()
    assert "theta,phi,value" in field

    out2 = tmp_path / "sim2"
    assert run_cli("simulate", "--alpha", "3", "--kappa-ref", "8", "--steps", "4",
                   "--seed", "3", "--output", str(out2)) == 0
    assert read(out / "trajectory.csv") == read(out2 / "trajectory.csv")
    assert read(out / "final_field.csv") == read(out2 / "final_field.csv")


def test_simulate_schrodinger_blocks(tmp_path):
    out = tmp_path / "sch"
    code = run_cli("simulate", "--equation", "schrodinger", "--alpha", "4",
                   "--kappa-ref", "6", "--steps", "2", "--seed", "1",
                   "--output", str(out))
    assert code == 0
    traj = (out / "trajectory.csv").read_text()
    assert "# field=real" in traj and "# field=imag" in traj


def test_simulate_dsphere_skips_grid_output(tmp_path):
    out = tmp_path / "d4"
    code = run_cli("simulate", "--equation", "wave-dsphere", "--dim", "4",
                   "--alpha", "4", "--kappa-ref", "5", "--steps", "2",
                   "--seed", "1", "--output", str(out))
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert not (out / "final_field.csv").exists()


def test_sample_field_subcommand(tmp_path):
    out = tmp_path / "sf"
    code = run_cli("sample-field", "--alpha", "3", "--kappa-ref", "16", "--seed", "2",
                   "--output", str(out))
    assert code == 0
    assert (out / "sample_field.csv").exists()
    coeffs = read_coefficient_csv(str(out / "sample_coefficients.csv"))
    assert coeffs.kappa == 16 and coeffs.dim == 3


def test_smoother_spectrum_concentrates_energy_at_low_degrees(tmp_path):
    # alpha = 5 samples put a larger energy fraction in ell <= 8 than alpha = 3
    fractions = {}
    for alpha, out in ((3.0, tmp_path / "a3"), (5.0, tmp_path / "a5")):
        assert run_cli("sample-field", "--alpha", str(alpha), "--kappa-ref", "64",
                       "--seed", "12", "--output", str(out)) == 0
        c = read_coefficient_csv(str(out / "sample_coefficients.csv"))
        power = oracles.degree_power(c)
        fractions[alpha] = power[:9].sum() / power.sum()
    assert fractions[5.0] >= fractions[3.0]


def test_path_error_subcommand(tmp_path):
    out = tmp_path / "pe"
    code = run_cli("path-error", "--preset", "fig5-alpha3", "--output", str(out))
    assert code == 0
    for comp in ("position", "velocity"):
        assert (out / f"path_error_{comp}.csv").exists()


def test_weak_analytic_rejects_exp_functional(tmp_path, capsys):
    code = run_cli("weak", "--preset", "weak-oracle",
                   "--weak-functional", "exp-neg-squared-norm",
                   "--output", str(tmp_path))
    assert code == 1
    assert "squared norm" in capsys.readouterr().err


def test_weak_mc_small_run(tmp_path):
    out = tmp_path / "weak"
    code = run_cli("weak", "--alpha", "3", "--kappas", "2,4,8,16", "--kappa-ref", "32",
                   "--samples", "20", "--seed", "4", "--output", str(out))
    assert code == 0
    payload = json.loads((out / "weak_position.json").read_text())
    assert payload["metadata"]["functional"] == "squared-norm"


def test_coefficient_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    field = CoefficientField(rng.standard_normal(mode_count(5, 3)), 5)
    path = tmp_path / "coeffs.csv"
    write_coefficient_csv(str(path), field)
    back = read_coefficient_csv(str(path))
    assert back.kappa == 5 and back.dim == 3
    assert np.array_equal(back.data, field.data)


def test_file_initial_data_flows_through(tmp_path):
    rng = np.random.default_rng(1)
    v1 = CoefficientField(rng.standard_normal(mode_count(8, 3)), 8)
    path = tmp_path / "v1.csv"
    write_coefficient_csv(str(path), v1)
    out = tmp_path / "run"
    code = run_cli("convergence", "--alpha", "10", "--kappas", "2,4,8,16",
                   "--kappa-ref", "32", "--samples", "3", "--seed", "6",
                   "--initial-data", "file", "--v1-file", str(path),
                   "--output", str(out))
    assert code == 0
    text = (out / "convergence_position.csv").read_text()
    assert "initial_data=file" in text


def test_outputs_are_byte_identical_across_thread_counts(tmp_path, monkeypatch):
    # grid errors in chunks of two samples, so that both workers get chunks
    fields = 2 * 2 * harness._grid_working_set(32, (33, 66), [2, 4, 8, 16])[0]
    monkeypatch.setattr(harness, "SAMPLE_CHUNK_BYTES", fields)
    for command, kind in [("convergence", "l2-coefficients"), ("convergence", "max-grid"),
                          ("path-error", "max-grid")]:
        dirs = [tmp_path / f"{command}-{kind}-t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), dirs):
            assert run_cli(command, "--preset", "fig1", "--samples", "5",
                           "--kappa-ref", "32", "--kappas", "2,4,8,16",
                           "--error-kind", kind, "--threads", str(threads),
                           "--output", str(out)) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir()) and len(names) == 4
        for name in names:
            assert read(dirs[0] / name) == read(dirs[1] / name), name


def test_error_tables_record_the_sampler(tmp_path):
    runs = {"per-degree": ("convergence",), "per-mode": ("convergence", "--error-kind",
                                                         "max-grid")}
    for sampler, argv in runs.items():
        out = tmp_path / sampler
        assert run_cli(*argv, "--alpha", "3", "--kappas", "2,4,8", "--kappa-ref", "16",
                       "--samples", "2", "--seed", "1", "--output", str(out)) == 0
        for comp in ("position", "velocity"):
            assert f"# sampler={sampler}\n" in (out / f"convergence_{comp}.csv").read_text()
            payload = json.loads((out / f"convergence_{comp}.json").read_text())
            assert payload["metadata"]["sampler"] == sampler


def _coefficient_lines(tmp_path, kappa=3, dim=3):
    rng = np.random.default_rng(2)
    field = CoefficientField(rng.standard_normal(mode_count(kappa, dim)), kappa, dim)
    path = tmp_path / "coeffs.csv"
    write_coefficient_csv(str(path), field)
    return path, path.read_text().splitlines()


def test_coefficient_csv_round_trip_higher_dimension(tmp_path):
    path, _ = _coefficient_lines(tmp_path, kappa=4, dim=5)
    back = read_coefficient_csv(str(path))
    assert (back.kappa, back.dim) == (4, 5)
    assert back.data.size == mode_count(4, 5)


def test_shuffled_coefficient_file_is_rejected(tmp_path):
    path, lines = _coefficient_lines(tmp_path)
    first = lines.index("ell,m,component,value") + 1
    lines[first + 2], lines[first + 5] = lines[first + 5], lines[first + 2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"coeffs\.csv: line {first + 3}: mode label"):
        read_coefficient_csv(str(path))


def test_mislabelled_coefficient_file_is_rejected(tmp_path):
    path, lines = _coefficient_lines(tmp_path)
    first = lines.index("ell,m,component,value") + 1
    ell, m, comp, value = lines[first + 4].split(",")
    assert (ell, m, comp) == ("2", "0", "0")
    lines[first + 4] = f"2,0,1,{value}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"coeffs\.csv: line {first + 5}: mode label"):
        read_coefficient_csv(str(path))


def test_coefficient_file_with_wrong_row_count_is_rejected(tmp_path):
    path, lines = _coefficient_lines(tmp_path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match=r"coeffs\.csv: 15 coefficient rows, expected 16"):
        read_coefficient_csv(str(path))
    path.write_text("\n".join(lines + ["4,0,0,1.0"]) + "\n")
    with pytest.raises(ValueError, match=r"coeffs\.csv: line \d+: more than the 16"):
        read_coefficient_csv(str(path))


def test_short_coefficient_file_is_rejected_before_building_labels(tmp_path, monkeypatch):
    monkeypatch.setattr(spherewave_io, "label_in_degree",
                        lambda *a: pytest.fail("mode labels built for a short file"))
    path = tmp_path / "short.csv"
    path.write_text("# kappa=1000\n# dim=3\nell,m,component,value\n0,0,0,1.0\n")
    with pytest.raises(ValueError, match=r"short\.csv: 1 coefficient rows, expected at least "
                                         r"1001 for kappa=1000, dim=3"):
        read_coefficient_csv(str(path))
    path.write_text("# kappa=1\n# dim=8\nell,m,component,value\n0,0,0,1.0\n1,1,0,2.0\n")
    with pytest.raises(ValueError, match=r"short\.csv: 2 coefficient rows, expected 9 "
                                         r"for kappa=1, dim=8"):
        read_coefficient_csv(str(path))


@pytest.mark.parametrize("header", ["# kappa=-1\n", "# kappa=2\n# dim=2\n"])
def test_coefficient_file_with_invalid_shape_is_rejected(tmp_path, header):
    path = tmp_path / "bad.csv"
    path.write_text(header + "ell,m,component,value\n0,0,0,1.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv: need kappa >= 0 and dim >= 3"):
        read_coefficient_csv(str(path))


@pytest.mark.parametrize("header,key", [("# kappa=4.5\n", "kappa=4.5"),
                                        ("# kappa=2\n# dim=three\n", "dim=three")])
def test_coefficient_file_with_non_integer_header_is_rejected(tmp_path, header, key):
    path = tmp_path / "bad.csv"
    path.write_text(header + "ell,m,component,value\n0,0,0,1.0\n")
    with pytest.raises(ValueError, match=rf"bad\.csv: '# {key}' is not an integer"):
        read_coefficient_csv(str(path))


def _with_value(path, line, value):
    """Rewrite the value of one row of a coefficient file (lines count from 1)."""
    lines = path.read_text().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + f",{value}\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("value", ["nan", "-nan", "inf", "-inf", "1e400", "-1e400"])
def test_coefficient_file_with_non_finite_value_is_rejected(tmp_path, value):
    path = tmp_path / "bad.csv"
    write_coefficient_csv(str(path), CoefficientField(np.ones(4), 1))
    _with_value(path, 6, value)  # the row 1,1,1 after two metadata lines and the header
    assert read(path).decode().splitlines()[5] == f"1,1,1,{value}"
    with pytest.raises(ValueError, match=rf"bad\.csv: line 6: value '{value}' is not finite"):
        read_coefficient_csv(str(path))


@pytest.mark.parametrize("row", ["0,0,0,1.5,junk", " 0 , +0 ,0_0, 1_5 ", "0,0,0,1_5",
                                 "0,0,0, 1.5", "0,0,-0,1.5", "0,0,0"])
def test_coefficient_row_that_is_not_four_plain_fields_is_rejected(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"# kappa=0\nell,m,component,value\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv: line 3: expected 'ell,m,component,value', "
                                         r"got " + re.escape(repr(row.strip()))):
        read_coefficient_csv(str(path))
    path.write_text("# kappa=0\nell,m,component,value\n00,0,0,1.5\n")
    assert read_coefficient_csv(str(path)).data.tolist() == [1.5]


def test_simulate_refuses_a_non_finite_initial_value(tmp_path, capsys):
    path = tmp_path / "v1.csv"
    write_coefficient_csv(str(path), CoefficientField(np.ones(mode_count(4)), 4))
    _with_value(path, 6, "nan")
    out = tmp_path / "out"
    assert run_cli("simulate", "--initial-data", "file", "--v1-file", str(path),
                   "--kappa-ref", "4", "--steps", "2", "--output", str(out)) == 1
    assert f"{path}: line 6: value 'nan' is not finite" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


# SHA-256 of files written before trajectories were streamed to disk; the
# streaming writers must keep every byte.  final_field.csv is left out: its
# grid sums go through BLAS, whose rounding depends on the library build.
GOLDEN = [
    (("simulate", "--alpha", "3", "--kappa-ref", "8", "--steps", "4", "--seed", "3"),
     "trajectory.csv", "e01c7ac564971c0e6f0b78675bbe58643835c334d07b1f8b2c361ecb1a75323c"),
    (("simulate", "--alpha", "3", "--kappa-ref", "12", "--steps", "7", "--store-every", "3",
      "--seed", "4"),
     "trajectory.csv", "b135995147c542aeb2174b892faba043feb2e606ce28ab1552f6a6134bf3202f"),
    (("simulate", "--equation", "schrodinger", "--alpha", "4", "--kappa-ref", "6",
      "--steps", "5", "--store-every", "3", "--seed", "1"),
     "trajectory.csv", "5e5738a308a0c0243c8125a399a660d357521327636ed23580a4cd1f134ba24e"),
    (("simulate", "--equation", "wave-dsphere", "--dim", "4", "--alpha", "4",
      "--kappa-ref", "5", "--steps", "2", "--seed", "1"),
     "trajectory.csv", "34e3ec80df9ee2740f823900a7653bfbcddfe1d5c9baa139af28a1310b8022aa"),
    (("sample-field", "--alpha", "3", "--kappa-ref", "16", "--seed", "2"),
     "sample_coefficients.csv",
     "4841f45a684a8b64caecc8ea1501056e3c1f675d5acaa24e7eb04e451902a013"),
    (("sample-field", "--equation", "wave-dsphere", "--dim", "4", "--alpha", "4",
      "--kappa-ref", "6", "--seed", "2"),
     "sample_coefficients.csv",
     "a430834cd182125e8f181355851c67fc1282517dbdeddfe68f9141f9f295cf90"),
    # recorded before the wave and Schrodinger paths were merged into one per-degree
    # law: random and file data (files from _write_data_files) and zero noise, whose
    # states are full of signed zeros
    (("simulate", "--alpha", "10", "--initial-data", "random-sobolev", "--beta", "2",
      "--gamma", "1.5", "--kappa-ref", "10", "--steps", "3", "--seed", "5"),
     "trajectory.csv", "973aba79e53049c902a6244c39a46c40a2088854ab32f9a7b5c5e4ad20a410e3"),
    (("simulate", "--equation", "schrodinger", "--alpha", "4", "--initial-data",
      "random-sobolev", "--beta", "2", "--gamma", "2.5", "--kappa-ref", "10", "--steps", "3",
      "--seed", "5"),
     "trajectory.csv", "86f98c370f0f5bdf99e99f783bed701aff8cb3b78dfe71bfb11f9a8e14245bcf"),
    (("simulate", "--alpha", "3", "--initial-data", "file", "--v1-file", "v1_d3.csv",
      "--v2-file", "v2_d3.csv", "--kappa-ref", "24", "--steps", "3", "--store-every", "2",
      "--seed", "6"),
     "trajectory.csv", "d6e4463667b03d152a7b5d17203504e2fec134e709ba17117635d5b1077078e8"),
    (("simulate", "--equation", "schrodinger", "--alpha", "4", "--initial-data", "file",
      "--v2-file", "v2_d3.csv", "--kappa-ref", "24", "--steps", "3", "--seed", "6"),
     "trajectory.csv", "0025c93c2d3cbe24598316d33dca1461b4f37905c31f4a614b812e6c4bab0bd6"),
    (("simulate", "--scale", "0", "--kappa-ref", "6", "--steps", "3", "--seed", "7"),
     "trajectory.csv", "bc955743cddafd4a5dfd3c5ac8a643ed2e915447b131ac889c986df424b8ef62"),
    (("simulate", "--equation", "schrodinger", "--scale", "0", "--kappa-ref", "6",
      "--steps", "3", "--seed", "7"),
     "trajectory.csv", "753d4a67992f23fcaac639e4af86703073e9d78bac16756be8366f45f0db03ea"),
    (("simulate", "--equation", "schrodinger", "--scale", "0", "--initial-data", "file",
      "--v1-file", "v1_d3.csv", "--kappa-ref", "6", "--steps", "3", "--seed", "7"),
     "trajectory.csv", "29ac6b8423f652a7878e0a1fdc809ba8308eedae6e39a626351d7f31cbef33fe"),
    (("simulate", "--equation", "wave-dsphere", "--dim", "4", "--scale", "0",
      "--initial-data", "file", "--v2-file", "v2_d4.csv", "--kappa-ref", "6", "--steps",
      "2", "--seed", "7"),
     "trajectory.csv", "63bde8bc242b6d4b8bfb0b3128432439ea778daa251d083bfa8ca1fe5c4943c7"),
]


@pytest.mark.parametrize("argv,name,digest", GOLDEN, ids=lambda v: "-".join(v)
                         if isinstance(v, tuple) else None)
def test_outputs_match_golden_hashes(tmp_path, monkeypatch, argv, name, digest):
    # file paths enter the metadata, so the data files are named relative to the run
    monkeypatch.chdir(tmp_path)
    _write_data_files(tmp_path)
    assert run_cli(*argv, "--output", str(tmp_path)) == 0
    assert hashlib.sha256(read(tmp_path / name)).hexdigest() == digest
    assert not list(tmp_path.glob("*.part"))


# Error tables of per-degree experiments, hashed (names and bytes of every file
# written) before the per-degree sampler drew its samples in chunks.  The
# coefficient files are written by _write_data_files.
DATA_FILES = {"v1_d3.csv": (20, 3), "v2_d3.csv": (48, 3), "v1_d4.csv": (10, 4),
              "v2_d4.csv": (30, 4)}
DEGREE_GOLDEN = [
    (("convergence", "--preset", "fig3", "--samples", "37"),
     "d885b7462e3a69149fea610a49edcdbe4801c7cab45e430088193b82ae5ef52d"),
    (("convergence", "--preset", "sch-fig7", "--samples", "37"),
     "fb50a5905eff2be07a6234e9a146155b7aae19ccc5e1017d3b2c3f593b8ee812"),
    (("convergence", "--preset", "dsphere-d4", "--samples", "37"),
     "5f78dab22eda33a3f16d25cdc93c3df91dbc871ec75a18988cc46ea5ae72b6b2"),
    (("weak", "--preset", "weak-norm2", "--samples", "37"),
     "1ac160ad0593901bde5840729edcfed37650311e97d2542ba1f7f86e1045b7d9"),
    (("weak", "--preset", "weak-expnorm2", "--samples", "37"),
     "7c9369d7ae1d0882a5e3b0104e1501292bef1b7a253ffb603d1263bc080e6f8a"),
    (("path-error", "--preset", "fig3"),
     "50e4173a5a8dac8228a8576a025791599be3272df80f9c920d5a87b68f44a45c"),
    (("convergence", "--initial-data", "file", "--v1-file", "v1_d3.csv", "--v2-file",
      "v2_d3.csv", "--kappa-ref", "40", "--kappas", "2,4,8,16", "--samples", "37",
      "--seed", "21"),
     "b4144bd2d41b11c8a4aea9dc1eed48efd2b7c1d88323d88b799ff0cb57695ba8"),
    (("weak", "--initial-data", "file", "--v1-file", "v1_d3.csv", "--kappa-ref", "40",
      "--weak-functional", "exp-neg-squared-norm", "--kappas", "2,4,8,16", "--samples",
      "37", "--seed", "21"),
     "3a797410e8f756eadf95ed9c393361630cfc557c4f9f567fd40a6d1ceeb35f70"),
    (("convergence", "--equation", "wave-dsphere", "--dim", "4", "--alpha", "4",
      "--initial-data", "file", "--v1-file", "v1_d4.csv", "--v2-file", "v2_d4.csv",
      "--kappa-ref", "24", "--kappas", "2,4,8,16", "--samples", "37", "--seed", "21"),
     "91ca8f0a1362c6681686fdb7346aa10fd58afb87c762bf648b4ed7fea066c30d"),
    (("path-error", "--equation", "wave-dsphere", "--dim", "4", "--alpha", "4",
      "--initial-data", "file", "--v2-file", "v2_d4.csv", "--kappa-ref", "24",
      "--kappas", "2,4,8,16", "--samples", "37", "--seed", "21"),
     "d11d5d125d745a6ef9fe4fc1e1cf003455320fa1e3928d36c80760e851882be4"),
    (("convergence", "--equation", "schrodinger", "--alpha", "4", "--initial-data",
      "file", "--v1-file", "v1_d3.csv", "--v2-file", "v2_d3.csv", "--kappa-ref", "40",
      "--kappas", "2,4,8,16", "--samples", "37", "--seed", "21"),
     "9295c4510d214c3f4200219ffdff92ea1077711dc173a15c43d0276c9d82643f"),
    (("convergence", "--alpha", "10", "--initial-data", "random-sobolev", "--beta", "2",
      "--gamma", "1.5", "--kappa-ref", "64", "--kappas", "2,4,8,16", "--samples", "37",
      "--seed", "21"),
     "fa35b19b2b44cd11cc38776d29fbc5bbd3c16a0b1acbf4eb9b1c0747b855a6aa"),
    (("convergence", "--equation", "schrodinger", "--alpha", "4", "--initial-data",
      "random-sobolev", "--beta", "2", "--gamma", "2.5", "--kappa-ref", "64", "--kappas",
      "2,4,8,16", "--samples", "37", "--seed", "21"),
     "53376f444d6f93f1c32fc21ebd0b294a180234e75225cf01210c1fb4118e65ab"),
    (("weak", "--alpha", "3", "--initial-data", "random-sobolev", "--beta", "2",
      "--kappa-ref", "64", "--weak-functional", "exp-neg-squared-norm", "--kappas",
      "2,4,8,16", "--samples", "37", "--seed", "21"),
     "97404c1764888dd0bfa77002f0a731b7e7911253f53e570c04a42f044f724502"),
    (("convergence", "--kappas", "2,4,8,63", "--kappa-ref", "64", "--samples", "37"),
     "2233748b1fce6498b7306adf2b8db519ce50dca2bc6ed103f54ef1918fef5ce2"),
    (("weak", "--kappas", "2,4,8,63", "--kappa-ref", "64", "--samples", "37"),
     "edccbd1ad16ae888288ce6e27d8eb5c74a18601ff13ad9d76769aad546e67099"),
    # exact weak errors, recorded once they were summed from the per-degree law
    (("weak", "--preset", "weak-oracle"),
     "870fd292ff4b76f06c9f962c2e49451fcce502251d259952270e4d2f3482221f"),
    (("weak", "--equation", "schrodinger", "--alpha", "4", "--weak-method", "analytic",
      "--kappa-ref", "64", "--kappas", "2,4,8,16"),
     "c35d923b2164ddbefef96c9e68c268ab691fa317404b71bd85d1ae724b6d6e82"),
    (("weak", "--alpha", "10", "--initial-data", "random-sobolev", "--beta", "2", "--gamma",
      "1.5", "--weak-method", "analytic", "--kappa-ref", "64", "--kappas", "2,4,8,16"),
     "92d6006a2184b6f8647f192c96e0aeece81a701df857732e7ab325f71d5124af"),
]


def _write_data_files(directory):
    for name, (kappa, dim) in DATA_FILES.items():
        n = mode_count(kappa, dim)
        data = (np.cos(0.7 * np.arange(n) + len(name) * dim)
                / (1.0 + mode_degrees(kappa, dim)) ** 2)
        write_coefficient_csv(str(directory / name), CoefficientField(data, kappa, dim))


def _directory_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + read(path))
    return digest.hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv,digest", DEGREE_GOLDEN, ids=lambda v: "-".join(v)
                         if isinstance(v, tuple) else None)
def test_per_degree_outputs_match_golden_hashes(tmp_path, monkeypatch, argv, digest,
                                                threads):
    # file paths enter the metadata, so the data files are named relative to the run
    monkeypatch.chdir(tmp_path)
    _write_data_files(tmp_path)
    assert run_cli(*argv, "--threads", threads, "--output", "out") == 0
    assert _directory_digest(tmp_path / "out") == digest


def test_l2_grid_error_kind_is_refused_naming_l2_coefficients(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run_cli("convergence", "--error-kind", "l2-grid", "--output", str(tmp_path))
    assert "l2-coefficients" in capsys.readouterr().err
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({"error_kind": "l2-grid"}))
    assert run_cli("convergence", "--config", str(cfg_path), "--output", str(tmp_path)) == 1
    assert "l2-coefficients" in capsys.readouterr().err


def test_successive_main_calls_do_not_share_flag_values(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "convergence", (lambda cfg: seen.append(cfg) or [], ""))
    assert build_parser() is build_parser()
    assert run_cli("convergence", "--alpha", "2.5", "--samples", "3", "--kappas", "1,2",
                   "--equation", "schrodinger", "--output", str(tmp_path)) == 0
    assert run_cli("convergence") == 0
    assert seen == [ExperimentConfig(alpha=2.5, samples=3, kappas=[1, 2],
                                     equation="schrodinger", output=str(tmp_path)),
                    ExperimentConfig()]
    assert build_parser().parse_args(["weak", "--debug"]).debug
    assert not build_parser().parse_args(["weak"]).debug


def _parser_with_flags_per_subcommand():
    """The parser built as before the flags moved to a shared parent parser:
    every subcommand adds each flag itself."""
    shared = build_parser()
    parser = argparse.ArgumentParser(prog=shared.prog, description=shared.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in cli._COMMANDS.items():
        cli._add_flags(sub.add_parser(name, help=help_text))
    return parser


@pytest.mark.parametrize("columns", ["80", "132"])
def test_help_screens_match_a_parser_with_flags_per_subcommand(monkeypatch, capsys,
                                                               columns):
    monkeypatch.setenv("COLUMNS", columns)
    screens = []
    for parser in (build_parser(), _parser_with_flags_per_subcommand()):
        texts = []
        for command in ([], *([name] for name in cli._COMMANDS)):
            with pytest.raises(SystemExit):
                parser.parse_args([*command, "--help"])
            texts.append(capsys.readouterr().out)
        screens.append(texts)
    assert len(screens[0]) == 6 and screens[0] == screens[1]
    assert all("--kappa-ref" in text and "--debug" in text for text in screens[0][1:])


@pytest.mark.parametrize("command", ["simulate", "sample-field"])
def test_state_larger_than_memory_fails_before_allocating(tmp_path, monkeypatch, capsys,
                                                          command):
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 32 * 10**9)
    for name in ("run_path", "sample_isotropic_grf", "_simulate_initial"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("allocated anyway"))
    out = tmp_path / "big"
    # 2,528,665,425 modes x BYTES_PER_MODE[command]
    assert run_cli(command, "--equation", "wave-dsphere", "--dim", "8", "--kappa-ref", "64",
                   "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert "kappa_ref (--kappa-ref) = 64: the 2528665425 modes at dim=8 need about" in err
    assert f"{2528665425 * cli.BYTES_PER_MODE[command] / 1e9:.3g} GB" in err
    assert "the 32 GB of physical memory" in err and not out.exists()

    monkeypatch.setattr(harmonics, "_physical_memory", lambda: None)  # unknown: no check
    cli._check_state_memory(resolve_config(build_parser().parse_args(
        [command, "--equation", "wave-dsphere", "--dim", "8", "--kappa-ref", "64"])), command)


def test_sample_field_is_charged_its_own_bytes_per_mode(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 20 * 10**6)
    # 259,161 modes: 4.41 MB at sample-field's 17 B per mode, 35.5 MB at simulate's 137
    out = tmp_path / "fits"
    assert run_cli("sample-field", "--equation", "wave-dsphere", "--dim", "5", "--kappa-ref",
                   "40", "--output", str(out)) == 0
    assert (out / "sample_coefficients.csv").exists()
    # 1,231,041 modes x 17 B = 20.9 MB
    monkeypatch.setattr(cli, "sample_isotropic_grf", lambda *a, **k: pytest.fail("allocated"))
    out = tmp_path / "big"
    assert run_cli("sample-field", "--equation", "wave-dsphere", "--dim", "5", "--kappa-ref",
                   "60", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert "kappa_ref (--kappa-ref) = 60: the 1231041 modes at dim=5 need about" in err
    assert "about 0.0209 GB, more than the 0.02 GB of physical memory" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [("simulate", "--steps", "1"), ("sample-field",),
                                     ("convergence", "--error-kind", "max-grid"),
                                     ("path-error", "--error-kind", "max-grid")])
def test_grid_larger_than_memory_fails_before_building_its_nodes(tmp_path, monkeypatch, capsys,
                                                                 command):
    monkeypatch.setattr(harmonics, "_physical_memory", lambda: 10**8)
    monkeypatch.setattr(harmonics, "gauss_legendre",
                        lambda n: pytest.fail("built the grid's nodes anyway"))
    out = tmp_path / "out"
    # Per field at kappa_ref 64: the packed coefficients (2 x 2145 values), the
    # theta profiles (2 x 60000 values per order up to each shell's top degree)
    # and the staged sums (4 x 8 x 30000).  simulate and sample-field synthesize
    # one field in one shell (65 orders) and unfold its grid (60000 x 130); grid
    # errors take one sample, two fields, in the kappas' shells (5 + 9 + 17 + 33
    # + 65 = 129 orders).  Per call: the largest Legendre block (138 rows x
    # 30000) and six half grids (6 x 66 x 60000), 27,900,000 values.  In all,
    # x 8 bytes: 4290 + 7,800,000 + 960,000 + 7,800,000 + 27,900,000 values =
    # 0.356 GB, and 2 x (4290 + 15,480,000 + 960,000) + 27,900,000 = 0.486 GB.
    assert run_cli(*command, "--n-theta", "60000", "--output", str(out)) == 1
    err = capsys.readouterr().err
    one_field = command[0] in ("simulate", "sample-field")
    fields, gb = ("1 field", "0.356") if one_field else ("2 fields", "0.486")
    assert (f"synthesis of {fields} at kappa=64 on a 60000 x 130 grid (n_theta x n_phi) "
            f"needs {gb} GB, more than the 0.1 GB of physical memory") in err
    assert not out.exists()


def test_simulate_refuses_an_endless_trajectory_before_making_its_directory(tmp_path, capsys):
    out = tmp_path / "endless"
    assert run_cli("simulate", "--steps", "18446744073709551616", "--output", str(out)) == 1
    err = capsys.readouterr().err
    assert "steps (--steps) = 18446744073709551616 with store_every (--store-every) = 1" in err
    assert not out.exists()


def test_simulate_refuses_a_trajectory_larger_than_the_free_space(tmp_path, monkeypatch,
                                                                   capsys):
    # kappa_ref 4 has 25 modes: 9 stored states x 2 fields x 25 rows x 29 bytes at least
    need = 9 * 2 * 25 * cli.TRAJECTORY_ROW_BYTES
    out = tmp_path / "a" / "b"
    argv = ("simulate", "--kappa-ref", "4", "--steps", "16", "--store-every", "2",
            "--output", str(out))
    shutil_usage, usage = type(cli.shutil.disk_usage(tmp_path)), []

    def disk_usage(path):
        usage.append(path)
        return shutil_usage(total=need, used=1, free=need - 1)

    monkeypatch.setattr(cli.shutil, "disk_usage", disk_usage)
    assert run_cli(*argv) == 1
    assert "stores 9 states" in capsys.readouterr().err
    assert usage == [str(tmp_path)] and not out.exists()
    monkeypatch.setattr(cli.shutil, "disk_usage",
                        lambda path: shutil_usage(total=need, used=0, free=need))
    assert run_cli(*argv) == 0
    assert (out / "trajectory.csv").stat().st_size > need


def test_simulate_rejects_initial_data_of_another_dimension(tmp_path, capsys):
    # at kappa_ref 0 every dimension has one mode, so only the check tells them apart
    path = tmp_path / "v2.csv"
    write_coefficient_csv(str(path), CoefficientField(np.ones(mode_count(0, 4)), 0, 4))
    assert run_cli("simulate", "--kappa-ref", "0", "--steps", "2", "--initial-data", "file",
                   "--v2-file", str(path), "--output", str(tmp_path / "out")) == 1
    assert "v2.csv: initial data has dim=4, the experiment needs dim=3" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("flags,config,key", [
    (["--alpha", "nan"], None, "alpha"),
    (["--T", "inf"], None, "T"),
    ([], {"alpha": True}, "alpha"),
    ([], {"T": "1"}, "T"),
    ([], {"kappas": [2.5, 4, 8]}, "kappas")])
def test_numeric_keys_that_are_not_finite_numbers_of_their_kind_fail_naming_the_key(
        tmp_path, capsys, flags, config, key):
    argv = ["convergence", "--kappa-ref", "16", "--samples", "2", *flags,
            "--output", str(tmp_path / "out")]
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run_cli(*argv) == 1
    assert f"error: {key} (--{key})" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_error_tables_refuse_values_that_are_not_finite():
    cfg = ExperimentConfig(kappas=[2, 4, 8], kappa_ref=16)
    with pytest.raises(ValueError, match=r"the strong errors of the velocity are not finite"):
        harness._make_table(cfg, "strong", "velocity", [2, 4, 8], [1.0, float("nan"), 0.5],
                            [0.1, 0.1, 0.1], "per-degree")
    with pytest.raises(ValueError, match=r"the weak-mc errors of the real .*standard errors "
                                         r"\[0\.1, inf, 0\.1\]"):
        harness._make_table(cfg, "weak-mc", "real", [2, 4, 8], [1.0, 0.7, 0.5],
                            [0.1, float("inf"), 0.1], "per-degree")


def _spherewave(argv, env_update, drop=(), check=True):
    """Run `python -m spherewave argv` in a fresh process from this checkout's sources."""
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(env_update, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "spherewave", *argv], env=env,
                          capture_output=True, text=True, check=check)


@pytest.mark.parametrize("flags,message", [
    (["--alpha", "800"], "alpha (--alpha) = 800.0: the spectrum underflows to 0 at degree 3"),
    (["--scale", "1e300"], "scale (--scale) = 1e+300: the squared spectrum overflows at degree 1")])
def test_a_spectrum_that_vanishes_or_overflows_fails_with_one_error_line(tmp_path, flags,
                                                                        message):
    # before the guard, --alpha 800 wrote all-zero tables and --scale 1e300
    # printed numpy's overflow warning before its error line
    run = _spherewave(["convergence", *flags, "--kappa-ref", "16", "--kappas", "2,4,8",
                       "--samples", "5", "--output", str(tmp_path / "out")], {}, check=False)
    assert run.returncode == 1
    assert run.stderr.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


def test_random_data_keeps_the_errors_of_a_vanishing_spectrum(tmp_path):
    out = tmp_path / "out"
    assert run_cli("convergence", "--alpha", "800", "--initial-data", "random-sobolev",
                   "--beta", "2", "--output", str(out)) == 0
    meta = json.loads((out / "convergence_position.json").read_text())
    assert meta["slope"] == pytest.approx(-1.85, abs=0.01)


def test_simulate_starts_from_the_initial_data_of_grid_error_sample_0(tmp_path):
    argv = ["simulate", "--initial-data", "random-sobolev", "--beta", "2", "--gamma", "1.5",
            "--kappa-ref", "12", "--seed", "4", "--output", str(tmp_path)]
    assert run_cli(*argv) == 0
    block = (tmp_path / "trajectory.csv").read_text().split("# t=")[1]
    assert block.startswith("0.0 ")
    written = [np.array([float(row.rsplit(",", 1)[1]) for row in part.splitlines()[1:]])
               for part in block.split("# field=")[1:]]
    cfg = resolve_config(build_parser().parse_args(argv))
    for got, expected in zip(written, harness.initial_data(cfg)(oracles.sample_rng(4, 0)),
                             strict=True):
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="BLAS splits products only with two or more CPUs")
def test_command_line_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # at kappa_ref 256 a two-thread BLAS rounds some phi products differently;
    # the command line runs BLAS on one thread unless the environment says otherwise
    dirs = []
    for name, env in [("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})]:
        out = tmp_path / name
        _spherewave(["sample-field", "--kappa-ref", "256", "--seed", "5", "--output", str(out)],
                    env, drop=BLAS_THREAD_VARIABLES)
        dirs.append(out)
    for name in ("sample_coefficients.csv", "sample_field.csv"):
        assert read(dirs[0] / name) == read(dirs[1] / name), name


def test_the_package_loads_lazily_and_leaves_the_blas_setting_to_the_command_line():
    code = ("import os, sys, spherewave; loaded = 'numpy' in sys.modules; "
            "from spherewave import cli; "
            "print(loaded, sorted(m for m in sys.modules if m.startswith('spherewave.')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'), spherewave.synthesize is "
            "sys.modules['spherewave.harmonics'].synthesize)")
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split(" ", 1)
    modules = [f"spherewave.{m}" for m in ("cli", "harmonics", "harness", "io", "modes",
                                           "noise", "spectrum", "wave")]
    assert out == ["False", f"{modules} None True\n"]


def test_readme_lists_the_exported_names():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    listed = text.split("The package exports only this user API", 1)[1].split("Everything else")[0]
    assert re.findall(r"`(\w+)`", listed) == spherewave.__all__
