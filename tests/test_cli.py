import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from kerndisc.cli import main
from kerndisc.discrepancy import periodic_error
from kerndisc.kernels import PeriodicKernel
from kerndisc.rkhs import PointSet
from kerndisc.sampling import MT19937, cell_seed


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_table_asymptotic_anchors_markdown():
    code, out = run_cli("table", "--kernel", "per-exp", "--mode", "asymptotic",
                        "--format", "markdown", "--threads", "1")
    assert code == 0
    lines = out.strip().splitlines()
    first_row = next(line for line in lines if line.startswith("| N= 16"))
    cells = [c.strip() for c in first_row.split("|")[2:-1]]
    assert cells[0] == "0.069" and cells[1] == "0.143"
    last_row = next(line for line in lines if line.startswith("| N= 512"))
    assert last_row.split("|")[2].strip() == "0.002"


def test_table_gauss_asymptotic_d1_zero_column():
    code, out = run_cli("table", "--kernel", "per-gauss", "--mode", "asymptotic",
                        "--D", "1", "--format", "csv", "--threads", "1")
    assert code == 0
    rows = [line for line in out.splitlines() if line and not line.startswith(("#", "N,"))]
    assert len(rows) == 6
    for row in rows:
        assert row.split(",")[2] == "0.000"


def test_table_csv_full_precision_column():
    code, out = run_cli("table", "--kernel", "per-mq", "--mode", "random",
                        "--N", "16", "--D", "2", "--format", "csv", "--seed", "3",
                        "--threads", "1")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("16,2")][0]
    n, d, value, full, flag = row.split(",")
    assert float(value) == pytest.approx(float(full), abs=5e-4)
    pts_seed = cell_seed(3, 16, 2)
    from kerndisc.sampling import uniform_points

    expected = periodic_error(PeriodicKernel("mq", 2), uniform_points(pts_seed, 16, 2))
    assert float(full) == expected.value
    assert flag == "0"


def test_table_byte_determinism():
    args = ("table", "--kernel", "per-gauss", "--mode", "random", "--N", "16,32",
            "--D", "1,2", "--format", "csv", "--seed", "0")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_table_refuses_threads_below_one(threads, capsys):
    code, out = run_cli("table", "--kernel", "per-exp", "--mode", "asymptotic", "--N", "16",
                        "--D", "1", "--threads", threads)
    assert code == 2
    assert out == ""
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_table_threads_do_not_change_output():
    base = ("table", "--kernel", "per-exp", "--mode", "asymptotic", "--N", "16,32",
            "--D", "1,2,4", "--format", "csv")
    _, seq = run_cli(*base, "--threads", "1")
    _, par = run_cli(*base, "--threads", "4")
    assert seq == par
    # random per-mq and per-gauss cells sum their Gram means through BLAS
    # products; worker threads must not change a digit
    for kernel in ("per-mq", "per-gauss"):
        base = ("table", "--kernel", kernel, "--mode", "random", "--N", "16,129,512",
                "--D", "1,8,128", "--format", "csv", "--seed", "5")
        code1, seq = run_cli(*base, "--threads", "1")
        code2, par = run_cli(*base, "--threads", "2")
        assert code1 == code2 == 0
        assert seq == par


def test_main_calls_share_one_parser_and_stay_independent():
    from kerndisc.cli import build_parser

    assert build_parser() is build_parser()
    code, sliced = run_cli("slice", "--kernel", "per-mq", "--D", "2", "--resolution", "3")
    assert code == 0 and sliced.splitlines()[0] == "t,value" and len(sliced.splitlines()) == 4
    code, table = run_cli("table", "--kernel", "per-exp", "--mode", "asymptotic", "--N", "16",
                          "--D", "1", "--format", "csv", "--threads", "1")
    assert code == 0
    assert table.splitlines()[:2] == ["# kernel=per-exp mode=asymptotic seed=0",
                                      "N,D,value,value_full,flag"]
    assert table.splitlines()[2].startswith("16,1,0.069,")
    with pytest.raises(SystemExit) as exc:
        main(["table", "--kernel", "per-exp", "--format", "json"])
    assert exc.value.code == 2
    # a refused command leaves the shared parser as it was
    assert run_cli("slice", "--kernel", "per-mq", "--D", "2", "--resolution", "3") == (0, sliced)


def test_table_rejects_bad_mode_combination():
    code, _ = run_cli("table", "--kernel", "spline", "--mode", "asymptotic")
    assert code == 2
    code, _ = run_cli("table", "--kernel", "per-exp", "--mode", "asymptotic", "--N", "0,4")
    assert code == 2
    code, _ = run_cli("table", "--kernel", "nope-nope", "--mode", "random")
    assert code == 2


def test_points_random_single(tmp_path):
    out_file = tmp_path / "pts.csv"
    code, _ = run_cli("points", "--kernel", "per-exp", "--mode", "random",
                      "--N", "1", "--D", "1", "--seed", "5", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "x0"
    value = float(lines[1])
    expected = MT19937(cell_seed(5, 1, 1)).random(1)[0]
    assert value == expected  # 17 significant digits round-trip


def test_points_optimized_metadata_and_consistency(tmp_path):
    out_file = tmp_path / "opt.csv"
    code, _ = run_cli("points", "--kernel", "per-gauss", "--mode", "optimized",
                      "--N", "16", "--D", "2", "--seed", "0", "--max-iters", "800",
                      "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert any(line.startswith("# E:") for line in meta)
    header_at = next(i for i, line in enumerate(lines) if line == "x0,x1")
    coords = np.array([[float(v) for v in line.split(",")]
                       for line in lines[header_at + 1:]])
    assert coords.shape == (16, 2)
    assert coords.min() >= 0.0 and coords.max() <= 1.0
    # re-evaluating the file reproduces the reported E
    reported = float(next(line for line in meta if line.startswith("# E:")).split(":")[1])
    again = periodic_error(PeriodicKernel("gauss", 2), PointSet(coords))
    assert again.value == pytest.approx(reported, abs=1e-9)


def test_points_optimized_spline_midpoints(tmp_path):
    out_file = tmp_path / "spl.csv"
    code, _ = run_cli("points", "--kernel", "spline", "--mode", "optimized",
                      "--N", "16", "--D", "1", "--out", str(out_file))
    assert code == 0
    rows = [line for line in out_file.read_text().splitlines()
            if line and not line.startswith(("#", "x0"))]
    got = np.sort(np.array([float(r) for r in rows]))
    expected = (2 * np.arange(1, 17) - 1) / 32.0
    assert np.allclose(got, expected, atol=1e-6)


def test_slice_per_trunc_values():
    code, out = run_cli("slice", "--kernel", "per-trunc", "--D", "1", "--resolution", "5")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(rows["0"]) == pytest.approx(2.0)
    assert float(rows["1"]) == pytest.approx(2.0)
    assert float(rows["0.5"]) == pytest.approx(0.0, abs=1e-15)


def test_slice_periodic_endpoints_match():
    code, out = run_cli("slice", "--kernel", "per-gauss", "--D", "3", "--resolution", "9")
    assert code == 0
    lines = out.splitlines()[1:]
    first = float(lines[0].split(",")[1])
    last = float(lines[-1].split(",")[1])
    assert first == pytest.approx(last, rel=1e-12)


def test_slice_mq_minimum_at_half_period():
    code, out = run_cli("slice", "--kernel", "per-mq", "--D", "1", "--resolution", "101")
    vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert np.argmin(vals) == 50


def test_slice_non_tensor_kernel_center_slice():
    code, out = run_cli("slice", "--kernel", "tra-gauss", "--D", "2", "--resolution", "11")
    assert code == 0
    vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert vals[5] == pytest.approx(PeriodicKernel("gauss", 2).diagonal(), rel=1)  # sane scale
    assert np.argmax(vals) == 5  # peak at the center


def test_check_command_passes():
    code, out = run_cli("check")
    assert code == 0
    assert "12/12 checks passed" in out


def test_points_validation_error_exit_code():
    code, _ = run_cli("points", "--kernel", "per-exp", "--mode", "random",
                      "--N", "0", "--D", "1")
    assert code == 2


def test_table_optimized_small_cell():
    code, out = run_cli("table", "--kernel", "per-exp", "--mode", "optimized",
                        "--N", "16", "--D", "1", "--format", "csv",
                        "--max-iters", "200", "--threads", "1")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("16,1")][0]
    value = float(row.split(",")[3])
    assert value == pytest.approx(1 / 16, rel=0.02)


def test_unwritable_out_path_is_validation_error(tmp_path):
    target = tmp_path / "no_such_dir" / "x.csv"
    code, _ = run_cli("slice", "--kernel", "per-exp", "--D", "1",
                      "--resolution", "4", "--out", str(target))
    assert code == 2


def test_slice_seed_kernel_center_profile():
    code, out = run_cli("slice", "--kernel", "seed-exp", "--D", "1", "--resolution", "5")
    assert code == 0
    rows = dict(line.split(",") for line in out.splitlines()[1:])
    assert float(rows["0.5"]) == pytest.approx(1.0)  # K(center, center)
    assert float(rows["0"]) == pytest.approx(np.exp(-0.5))


def test_oversized_mc_samples_exit_2(capsys):
    # 2^24 samples at D = 16 would be 2 GiB per sample set
    code, out = run_cli("table", "--kernel", "tra-gauss", "--mode", "random", "--N", "16",
                        "--D", "16", "--mc-samples", str(2**24), "--threads", "1")
    assert code == 2 and out == ""
    assert "GiB" in capsys.readouterr().err


def test_optimized_tra_gauss_reports_exact_e():
    # the exact integrals resolve the E of an optimized transported cell,
    # which a 2^16-sample MC estimate could not tell from 0
    code, out = run_cli("points", "--kernel", "tra-gauss", "--mode", "optimized",
                        "--N", "32", "--D", "2", "--max-iters", "300")
    assert code == 0
    meta = dict(line[2:].split(": ", 1) for line in out.splitlines() if line.startswith("# "))
    assert meta["method"] == "physical"
    assert float(meta["E"]) > 0.005


@pytest.mark.parametrize("argv", [
    ["slice", "--kernel", "per-exp", "--D", "1", "--mc-samples", "8"],
    ["slice", "--kernel", "per-exp", "--D", "1", "--seed", "1"],
    ["slice", "--kernel", "per-exp", "--D", "1", "--max-iters", "5"],
    ["points", "--kernel", "tra-gauss", "--N", "4", "--D", "1", "--mc-samples", "8"],
])
def test_subcommands_refuse_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
