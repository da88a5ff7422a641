import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tsvlab import (
    GeneralizedTwoStateVector,
    PointerConfig,
    TwoStateVector,
    TwoTimeKernel,
    abl_probabilities,
    abl_probabilities_generalized,
    get_scenario,
    weak_measure_pointer,
    weak_value,
)
from tsvlab.cli import main
from tsvlab.problemfile import load
from tsvlab.scenarios import SCENARIOS

FIXTURES = Path(__file__).parent / "fixtures"


class TestRun:
    def test_scenario_passes(self, capsys):
        assert main(["run", "spin-box"]) == 0
        out = capsys.readouterr().out
        assert "result: PASS (5/5 checks)" in out

    def test_json_format(self, capsys):
        assert main(["run", "three-box", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "three-box"
        assert doc["passed"] is True
        assert all(
            {"description", "provenance", "expected", "actual", "passed"} <= set(c)
            for c in doc["checks"]
        )

    def test_mean_king_table_emitted(self, capsys):
        assert main(["run", "mean-king"]) == 0
        out = capsys.readouterr().out
        assert "value table" in out

    def test_unknown_scenario(self, capsys):
        assert main(["run", "nosuch"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


@pytest.fixture()
def spin_box_file(tmp_path):
    path = tmp_path / "spin-box.json"
    assert main(["export-scenario", "spin-box", "--out", str(path)]) == 0
    return path


@pytest.fixture()
def three_box_file(tmp_path):
    path = tmp_path / "three-box.json"
    assert main(["export-scenario", "three-box", "--out", str(path)]) == 0
    return path


class TestAbl:
    def test_spin_box_certainty(self, capsys, spin_box_file):
        capsys.readouterr()  # drop fixture output
        assert main(["abl", "--file", str(spin_box_file), "--observable", "P_A_up"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = {line.split(":")[0].strip(): float(line.split(":")[1]) for line in lines}
        assert table["1"] == pytest.approx(1.0, abs=1e-12)
        assert table["0"] == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_file(self, capsys, tmp_path):
        path = tmp_path / "eigen.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[0.6, 0.0], [0.8, 0.0]],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "z"]) == 0
        out = capsys.readouterr().out
        assert "1: 1" in out

    def test_orthogonal_everything_exits_3(self, capsys):
        code = main([
            "abl",
            "--file", str(FIXTURES / "impossible_postselection.json"),
            "--observable", "sigma_z",
        ])
        assert code == 3

    def test_unknown_observable_exits_2(self, capsys, spin_box_file):
        assert main(["abl", "--file", str(spin_box_file), "--observable", "nope"]) == 2

    def test_time_evolution_route(self, capsys, tmp_path):
        # pre up_z at t=0, rotation by pi about y over unit time: at the end
        # the forward state is down_z, so with post = down_z, sigma_z is
        # certainly -1 at t=1 and certainly +1 at t=0
        h = [[[0.0, 0.0], [0.0, -np.pi / 2]], [[0.0, np.pi / 2], [0.0, 0.0]]]  # (pi/2) sigma_y
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[0.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1.0, "matrix": h}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "z", "--time", "0.0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        probs = {e["outcome"]: e["probability"] for e in doc["distribution"]}
        assert probs[1.0] == pytest.approx(1.0, abs=1e-12)
        assert main(["abl", "--file", str(path), "--observable", "z", "--time", "1.0", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        probs = {e["outcome"]: e["probability"] for e in doc["distribution"]}
        assert probs[-1.0] == pytest.approx(1.0, abs=1e-12)

    def test_time_outside_window_exits_2(self, capsys, tmp_path):
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1.0, "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "z", "--time", "5.0"]) == 2

    def test_nan_time_is_outside_window(self, capsys, tmp_path):
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1.0, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "z", "--time", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: time nan outside schedule window [0, 1.0]\n"

    def test_state_scale_does_not_matter(self, capsys, tmp_path):
        # the norm of a 1e300 state overflows a plain sum of squares and that of a
        # 1e-200 state underflows it; both must read as the unit-scale state
        outputs = set()
        for scale in (1.0, 1e300, 1e-200):
            path = tmp_path / f"scaled-{scale}.json"
            path.write_text(json.dumps({
                "dims": [2],
                "pre": [[scale, 0.0], [scale, 0.0]],
                "post": [[scale, 0.0], [0.0, scale]],
                "observables": [{"name": "n", "matrix": [[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0], [-0.6, 0.0]]]}],
            }))
            base = ["--file", str(path), "--observable", "n"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes = [main(["abl", *base]), main(["abl", *base, "--format", "json"]), main(["weak", *base])]
            assert codes == [0, 0, 0]
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.add(captured.out)
        assert len(outputs) == 1

    def test_generalized_weight_scale_does_not_matter(self, capsys, tmp_path):
        # ABL and the weak value are ratios of the weights; unscaled, a weight of
        # 1e-13 falls under the absolute empty-ensemble and orthogonality thresholds
        outputs = set()
        for alpha in (1e-13, 1.0, 1e300):
            path = tmp_path / f"alpha-{alpha}.json"
            path.write_text(json.dumps({
                "dims": [2],
                "generalized": [{"alpha": [alpha, 0.0], "pre": [[1.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [0.0, 0.0]]}],
                "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
            }))
            base = ["--file", str(path), "--observable", "z"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                codes = [main(["abl", *base]), main(["weak", *base])]
            assert codes == [0, 0]
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.add(captured.out)
        assert outputs == {"-1: 0\n1: 1\n1.0 + 0.0i\n"}

    def test_overflowing_evolution_phase_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge-h.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1e10, "matrix": [[[1e300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e300, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["abl", "--file", str(path), "--observable", "z", "--time", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: phase of exp(-i H t) overflows float64") and err.count("\n") == 1

    def test_time_window_scales_with_the_schedule(self, capsys, tmp_path):
        # two sigma_x flips of quarter turn each: |0> is |1> between them. Scaling
        # the durations by 2**-43 and H by 2**43 leaves every phase bit-identical,
        # so the output must be too, and 3 * 2**-43 lies past the window
        def flip_file(scale):
            h = [[[0.0, 0.0], [np.pi / 2 / scale, 0.0]], [[np.pi / 2 / scale, 0.0], [0.0, 0.0]]]
            path = tmp_path / f"flip-{scale}.json"
            path.write_text(json.dumps({
                "dims": [2],
                "pre": [[1.0, 0.0], [0.0, 0.0]],
                "post": [[1.0, 0.0], [0.0, 0.0]],
                "hamiltonian": [{"duration": scale, "matrix": h}] * 2,
                "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
            }))
            return ["abl", "--file", str(path), "--observable", "z"]

        outputs = {}
        for scale in (1.0, 2.0**-43):
            base = flip_file(scale)
            assert [main([*base, f"--time={t * scale!r}"]) for t in (0.5, 1.0, 2.0)] == [0, 0, 0]
            outputs[scale] = capsys.readouterr()
            assert main([*base, f"--time={3.0 * scale!r}"]) == 2
            assert capsys.readouterr().err == f"error: time {3.0 * scale} outside schedule window [0, {2.0 * scale}]\n"
        assert outputs[1.0].err == ""
        assert outputs[1.0].out.splitlines()[2] == "-1: 1"  # between the flips
        assert outputs[2.0**-43] == outputs[1.0]

    @pytest.mark.parametrize("time, code", [("-1e-13", 0), ("-1e-05", 2), ("-inf", 2), ("-2.5E+3", 2)])
    def test_negative_time_as_separate_argument(self, capsys, tmp_path, time, code):
        # argparse alone reads `-1e-05` as an option string; both spellings must
        # reach the time-window check and print the same thing
        path = tmp_path / "evolve.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[0.6, 0.0], [0.8, 0.0]],
            "hamiltonian": [{"duration": 1.0, "matrix": [[[0.0, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.0, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        base = ["abl", "--file", str(path), "--observable", "z"]
        assert main([*base, "--time", time, "--format", "json"]) == code
        separate = capsys.readouterr()
        assert main([*base, f"--time={time}", "--format", "json"]) == code
        assert capsys.readouterr() == separate
        if code == 0:
            assert main([*base, "--time", "0", "--format", "json"]) == 0
            assert capsys.readouterr().out == separate.out
        else:
            assert separate.err == f"error: time {float(time)} outside schedule window [0, 1.0]\n"


class TestWeak:
    def test_three_box_negative_weak_value(self, capsys, three_box_file):
        capsys.readouterr()  # drop fixture output
        assert main(["weak", "--file", str(three_box_file), "--observable", "P_C"]) == 0
        assert capsys.readouterr().out.strip() == "-1.0 + 0.0i"

    def test_identity_observable(self, capsys):
        assert main(["weak", "--file", str(FIXTURES / "random_dim3.json"), "--observable", "identity"]) == 0
        assert capsys.readouterr().out.strip() == "1.0 + 0.0i"

    def test_orthogonal_selection_exits_3(self):
        code = main([
            "weak",
            "--file", str(FIXTURES / "impossible_postselection.json"),
            "--observable", "sigma_z",
        ])
        assert code == 3


class TestVerify:
    def test_spin_box_exact(self, capsys, spin_box_file):
        code = main([
            "verify",
            "--file", str(spin_box_file),
            "--observable", "P_A_up",
            "--samples", "100000",
            "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out

    def test_random_fixture_within_bands(self, capsys):
        code = main([
            "verify",
            "--file", str(FIXTURES / "random_dim3.json"),
            "--observable", "obs_a",
            "--samples", "50000",
            "--seed", "9",
            "--workers", "2",
            "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert all(abs(row["z"]) <= 5 for row in doc["outcomes"])

    def test_impossible_postselection_exits_4(self, capsys):
        code = main([
            "verify",
            "--file", str(FIXTURES / "impossible_postselection.json"),
            "--observable", "sigma_z",
            "--samples", "2000",
            "--seed", "1",
        ])
        assert code == 4

    @pytest.mark.parametrize("flag", ["--samples", "--workers"])
    def test_non_positive_count_exits_2(self, capsys, flag):
        code = main([
            "verify",
            "--file", str(FIXTURES / "random_dim3.json"),
            "--observable", "obs_a",
            flag, "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_samples_over_cap_exit_2(self, capsys):
        code = main([
            "verify",
            "--file", str(FIXTURES / "random_dim3.json"),
            "--observable", "obs_a",
            "--samples", str(10**12),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples 1000000000000 exceeds MAX_MC_SAMPLES = 10000000\n"

    def test_negative_seed_exits_2(self, capsys):
        code = main([
            "verify",
            "--file", str(FIXTURES / "random_dim3.json"),
            "--observable", "obs_a",
            "--seed", "-1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be non-negative, got -1\n"

    def test_deterministic_output(self, capsys, spin_box_file):
        argv = [
            "verify",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--samples", "20000",
            "--seed", "77",
            "--workers", "3",
            "--format", "json",
        ]
        capsys.readouterr()  # drop fixture output
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


def per_row_pointer_csv(problem_path, observable, cfg):
    """The pointer CSV as the original one-write-per-row loop formatted it."""
    problem = load(problem_path)
    result = weak_measure_pointer(problem.selection, problem.observables[observable], cfg)
    rows = "".join(f"{q:.17g},{d:.17g}\n" for q, d in zip(result.positions, result.density))
    return "position,density\n" + rows, result


class TestPointer:
    def test_weak_regime_summary_and_csv(self, capsys, spin_box_file, tmp_path):
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", "0.001",
            "--sigma", "1.0",
            "--out", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        shift_over_g = float(next(l for l in out.splitlines() if l.startswith("mean_shift / g")).split(":")[1])
        assert abs(shift_over_g - (-1.0)) <= 0.01
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "position,density"
        q, d = zip(*[tuple(map(float, line.split(","))) for line in lines[1:]])
        assert abs(np.trapezoid(d, q) - 1.0) <= 1e-9

    def test_identity_observable_shifts_by_g(self, capsys, tmp_path):
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(FIXTURES / "random_dim3.json"),
            "--observable", "identity",
            "--g", "0.25",
            "--sigma", "1.0",
            "--out", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        shift = float(next(l for l in out.splitlines() if l.startswith("mean_shift ")).split(":")[1])
        assert shift == pytest.approx(0.25, abs=1e-9)

    def test_orthogonal_selection_exits_3(self, tmp_path):
        code = main([
            "pointer",
            "--file", str(FIXTURES / "impossible_postselection.json"),
            "--observable", "identity",
            "--g", "0.25",
            "--sigma", "1.0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3

    def test_strong_regime_flagged(self, capsys, spin_box_file, tmp_path):
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", "1000.0",
            "--sigma", "1.0",
            "--out", str(csv_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "strong regime: bump masses vs ABL" in out
        expected, result = per_row_pointer_csv(
            spin_box_file, "P_B_up", PointerConfig.auto(1000.0, 1.0, 1.0)
        )
        assert result.positions.size == 640_641
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("points", [4096, 4097, 8193])
    def test_csv_bytes_match_per_row_format(self, capsys, spin_box_file, tmp_path, points):
        # half-range 61.3 reaches far enough into the Gaussian tails that the
        # density underflows to subnormals and then to exact zeros
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", "0.001",
            "--sigma", "1.0",
            "--half-range", "61.3",
            "--points", str(points),
            "--out", str(csv_path),
        ])
        assert code == 0
        cfg = PointerConfig(coupling=0.001, sigma=1.0, half_range=61.3, points=points)
        expected, result = per_row_pointer_csv(spin_box_file, "P_B_up", cfg)
        assert np.any(result.density == 0.0)
        assert np.any((result.density > 0.0) & (result.density < np.finfo(float).tiny))
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("flags,named", [
        (["--g", "inf", "--sigma", "1.0"], "coupling"),
        (["--g", "nan", "--sigma", "1.0"], "coupling"),
        (["--g", "1.0", "--sigma", "nan"], "sigma"),
        (["--g", "1.0", "--sigma", "1e300"], "sigma"),
        (["--g", "1e300", "--sigma", "1.0"], "MAX_POINTER_POINTS"),
        # 640,000,000,641 points, ~10 TB for two float64 arrays
        (["--g", "1e9", "--sigma", "1.0"], "MAX_POINTER_POINTS"),
        (["--g", "0.001", "--sigma", "1.0", "--half-range", "20", "--points", str(2**22 + 1)],
         "MAX_POINTER_POINTS"),
        (["--g", "0.001", "--sigma", "1.0", "--half-range", "inf", "--points", "5000"],
         "half_range"),
        (["--g", "0.001", "--sigma", "1.0", "--half-range", "nan", "--points", "5000"],
         "half_range"),
        # spacing 4.9 sigma: printed mean_shift / g = -5.96 where Re A_w = -1
        (["--g", "0.001", "--sigma", "1.0", "--half-range", "1e4", "--points", "4096"],
         "spacing"),
        # spacing 488 sigma: the squared offsets overflowed to an empty pointer
        (["--g", "0.001", "--sigma", "1.0", "--half-range", "1e6", "--points", "4096"],
         "spacing"),
        # printed mean_shift / g = 5.55e+303: quadrature noise over a subnormal g
        (["--g", "1e-320", "--sigma", "1.0"], "coupling * max|eigenvalue| = 9.99989e-321"),
        (["--g", "1e-14", "--sigma", "1.0"], "1e-09 * sigma = 1e-09"),
    ])
    def test_bad_pointer_flags_exit_2(self, capsys, spin_box_file, tmp_path, flags, named):
        capsys.readouterr()  # drop fixture output
        csv_path = tmp_path / "x.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            *flags,
            "--out", str(csv_path),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert named in captured.err
        assert "nan" not in captured.out
        assert not csv_path.exists()

    def test_bad_grid_exits_2(self, capsys, spin_box_file, tmp_path):
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", "0.001",
            "--sigma", "1.0",
            "--half-range", "1.0",
            "--points", "4096",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestOverflowingSpectrum:
    """A finite Hermitian observable whose eigenvalues, +-2.4e308, lie past float64."""

    @pytest.mark.parametrize("verb", [
        ["abl"],
        ["abl", "--format", "json"],
        ["verify", "--samples", "1000"],
        ["pointer", "--g", "1", "--sigma", "1"],
    ])
    def test_exits_2_without_inf(self, capsys, tmp_path, verb):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [1.0, 0.0]],
            "observables": [{"name": "huge", "matrix": [[[1.7e308, 0.0], [1.7e308, 0.0]],
                                                         [[1.7e308, 0.0], [-1.7e308, 0.0]]]}],
        }))
        csv_path = tmp_path / "pointer.csv"
        out = ["--out", str(csv_path)] if verb[0] == "pointer" else []
        assert main([*verb, "--file", str(path), "--observable", "huge", *out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eigenvalues of this observable overflow float64\n"
        assert "inf" not in captured.out.lower()
        assert not csv_path.exists()


class TestExportRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bit_exact_round_trip(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        assert main(["export-scenario", name, "--out", str(path)]) == 0
        scenario = get_scenario(name)
        problem = load(path)
        if isinstance(scenario.selection, TwoStateVector):
            assert isinstance(problem.selection, TwoStateVector)
            tsv = problem.selection
            assert np.array_equal(tsv.forward.amplitudes, scenario.selection.forward.amplitudes)
            assert np.array_equal(tsv.backward.amplitudes, scenario.selection.backward.amplitudes)
            for obs_name, obs in scenario.observables.items():
                direct = abl_probabilities(scenario.selection, obs)
                via_file = abl_probabilities(tsv, problem.observables[obs_name])
                assert direct.entries == via_file.entries  # identical floats
                try:
                    assert weak_value(scenario.selection, obs.op) == weak_value(
                        tsv, problem.observables[obs_name].op
                    )
                except Exception:
                    pass
        elif isinstance(scenario.selection, GeneralizedTwoStateVector):
            assert isinstance(problem.selection, GeneralizedTwoStateVector)
            for obs_name, obs in scenario.observables.items():
                direct = abl_probabilities_generalized(scenario.selection, obs)
                via_file = abl_probabilities_generalized(
                    problem.selection, problem.observables[obs_name]
                )
                assert direct.entries == via_file.entries
                assert weak_value(scenario.selection, obs.op) == weak_value(
                    problem.selection, problem.observables[obs_name].op
                )
        else:
            assert isinstance(problem.selection, TwoTimeKernel)
            assert np.array_equal(problem.selection.matrix, scenario.selection.matrix)

    def test_kernel_file_rejected_by_abl(self, tmp_path, capsys):
        path = tmp_path / "pair.json"
        assert main(["export-scenario", "correlated-pair", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["observables"] = [
            {"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}
        ]
        path.write_text(json.dumps(doc))
        capsys.readouterr()  # drop export output
        for verb in ("abl", "weak"):
            assert main([verb, "--file", str(path), "--observable", "z"]) == 2
            assert capsys.readouterr().err == (
                "error: kernel problems have no single selection; use `run correlated-pair`\n"
            )
