import inspect
import json
import math
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import pair_states
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
from tsvlab import cli
from tsvlab.cli import CSV_BLOCK_ROWS, main
from tsvlab.measure import MIN_SIGMA, _sequential_born
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

    @pytest.mark.parametrize("verb", ["run", "export-scenario"])
    def test_unknown_scenario(self, capsys, verb):
        # a scenario name is an argparse choice, checked like --format
        with pytest.raises(SystemExit) as exc:
            main([verb, "nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tsvlab")
        assert "argument scenario: invalid choice: 'nosuch'" in err


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

    def test_overflowing_segment_spectrum_exits_2(self, capsys, tmp_path):
        # eigh of this segment gives [-inf, inf]: the phase over 1e-300 would be ~2.4e8
        path = tmp_path / "huge-spectrum.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[1.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1e-300, "matrix": [[[1.7e308, 0.0], [1.7e308, 0.0]],
                                                             [[1.7e308, 0.0], [-1.7e308, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["abl", "--file", str(path), "--observable", "z", "--time", "0"]) == 2
        assert capsys.readouterr().err == "error: eigenvalues of a hamiltonian segment overflow float64\n"

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

    def test_overflowing_total_duration_exits_2(self, capsys, tmp_path):
        # two segments of H = c sigma_x for time 1/c: at t = 0 the pre-selection |0>
        # gives z = 1. At c = 1e-308 the total duration 2e308 overflows to inf, which
        # would place t = 0 after both segments and print the answer at t = T, z = -1
        def flip_file(c):
            h = [[[0.0, 0.0], [c, 0.0]], [[c, 0.0], [0.0, 0.0]]]
            path = tmp_path / f"flip-{c}.json"
            path.write_text(json.dumps({
                "dims": [2],
                "pre": [[1.0, 0.0], [0.0, 0.0]],
                "post": [[0.0, 0.0], [1.0, 0.0]],
                "hamiltonian": [{"duration": 1.0 / c, "matrix": h}] * 2,
                "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
            }))
            return ["abl", "--file", str(path), "--observable", "z", "--time=0"]

        assert main(flip_file(1.0)) == 0
        assert capsys.readouterr().out == "-1: 0\n1: 1\n"
        assert main(flip_file(1e-308)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hamiltonian: total duration overflows float64\n"

    def test_non_hermitian_segment_is_named(self, capsys, tmp_path):
        z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        path = tmp_path / "upper.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[0.0, 0.0], [1.0, 0.0]],
            "hamiltonian": [{"duration": 1.0, "matrix": z},
                            {"duration": 1.0, "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}],
            "observables": [{"name": "z", "matrix": z}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "z", "--time=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: hamiltonian segment 1: matrix is not Hermitian\n"

    @pytest.mark.parametrize("time", ["inf", "1e309", "3e308", "1.7976931348623157e308"])
    def test_time_past_a_maximal_schedule_exits_2(self, capsys, tmp_path, time):
        # one segment of the largest finite duration: the window end plus its
        # slack overflows to inf, which must not admit a time past the window
        path = tmp_path / "maximal.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.0, 0.0]],
            "post": [[0.6, 0.0], [0.8, 0.0]],
            "hamiltonian": [{"duration": 1.7976931348623157e308,
                             "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}],
            "observables": [{"name": "z", "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]}],
        }))
        base = ["abl", "--file", str(path), "--observable", "z"]
        if float(time) == 1.7976931348623157e308:
            assert main([*base, f"--time={time}"]) == 0
            assert capsys.readouterr().out == "-1: 0\n1: 1\n"
        else:
            assert main([*base, f"--time={time}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: time inf outside schedule window [0, 1.7976931348623157e+308]\n"

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


def pairs(values):
    return np.stack((values.real, values.imag), axis=-1).tolist()


class TestObservableUnit:
    """The same physics in another unit: the thresholds scale with the operator."""

    @staticmethod
    def degenerate_file(tmp_path, c):
        # spectrum {1, 1, 1, 2, 2, 3} * c in a random eigenbasis, symmetrized
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        pre, post = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        m = (q * (c * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0]))) @ q.conj().T
        path = tmp_path / f"degenerate-{c}.json"
        path.write_text(json.dumps({
            "dims": [6], "pre": pairs(pre), "post": pairs(post),
            "observables": [{"name": "O", "matrix": pairs((m + m.conj().T) / 2.0)}],
        }))
        return path

    def test_degenerate_spectrum_in_any_unit(self, capsys, tmp_path):
        # at c = 2**24 the absolute merge split each eigenspace into noise-chosen
        # pieces (six outcomes); at c = 2**-30 it merged all into one certain outcome
        tables = {}
        for c in (1.0, 2.0**24, 2.0**-30):
            assert main(["abl", "--file", str(self.degenerate_file(tmp_path, c)), "--observable", "O"]) == 0
            tables[c] = [line.split(": ") for line in capsys.readouterr().out.splitlines()]
        for c, rows in tables.items():
            assert [float(outcome) / c for outcome, _ in rows] == pytest.approx([1.0, 2.0, 3.0], rel=1e-9)
            assert [prob for _, prob in rows] == [prob for _, prob in tables[1.0]]

    def test_every_verb_rescales_exactly(self, capsys, tmp_path):
        # O -> 2**k O on a degenerate d = 6 file with a Hamiltonian: probabilities,
        # frequencies and the pointer's CSV and rate (at g / 2**k) are unchanged bit
        # for bit, and outcomes and both parts of the weak value are 2**k times the originals
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        pre, post = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
        m = (q * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])) @ q.conj().T
        m = (m + m.conj().T) / 2.0
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        segment = {"duration": 0.5, "matrix": pairs((h + h.conj().T) / 2.0)}

        def outputs(k):
            path = tmp_path / f"scaled-{k}.json"
            path.write_text(json.dumps({
                "dims": [6], "pre": pairs(pre), "post": pairs(post), "hamiltonian": [segment] * 2,
                "observables": [{"name": "O", "matrix": pairs(math.ldexp(1.0, k) * m)}],
            }))
            base = ["--file", str(path), "--observable", "O"]
            runs = {}
            for verb, flags in (("abl", []), ("abl --time", ["--time", "0.7"]),
                                ("verify", ["--samples", "4000", "--seed", "3"]), ("weak", [])):
                assert main([verb.split()[0], *base, *flags, "--format", "json"]) == 0, verb
                runs[verb] = json.loads(capsys.readouterr().out)
            for g in (0.01, 20.0):
                csv_path = tmp_path / f"pointer-{k}-{g}.csv"
                assert main(["pointer", *base, "--g", repr(math.ldexp(g, -k)), "--sigma", "1",
                             "--out", str(csv_path)]) == 0
                rate = [line for line in capsys.readouterr().out.splitlines() if line.startswith("post-selection")]
                runs[f"pointer {g}"] = (csv_path.read_bytes(), rate)
            return runs

        unit = outputs(0)
        assert len(unit["abl"]["distribution"]) == 3
        for k in (7, -9, 40):
            scaled = outputs(k)
            for verb in ("abl", "abl --time"):
                entries, unit_entries = scaled[verb]["distribution"], unit[verb]["distribution"]
                assert [e["probability"] for e in entries] == [e["probability"] for e in unit_entries]
                assert [e["outcome"] for e in entries] == [math.ldexp(e["outcome"], k) for e in unit_entries]
            rows, unit_rows = scaled["verify"]["outcomes"], unit["verify"]["outcomes"]
            for field in ("abl", "frequency", "standard_error", "z"):
                assert [r[field] for r in rows] == [r[field] for r in unit_rows], field
            assert [r["outcome"] for r in rows] == [math.ldexp(r["outcome"], k) for r in unit_rows]
            assert scaled["weak"]["weak_value"] == [math.ldexp(part, k) for part in unit["weak"]["weak_value"]]
            for g in (0.01, 20.0):
                assert scaled[f"pointer {g}"] == unit[f"pointer {g}"], (k, g)

    def test_tiny_nilpotent_matrix_is_not_an_observable(self, capsys, tmp_path):
        path = tmp_path / "nilpotent.json"
        path.write_text(json.dumps({
            "dims": [2], "pre": [[1, 0], [1, 0]], "post": [[1, 0], [0, 0]],
            "observables": [{"name": "N", "matrix": [[[0, 0], [1e-12, 0]], [[0, 0], [0, 0]]]}],
        }))
        assert main(["abl", "--file", str(path), "--observable", "N"]) == 2
        assert capsys.readouterr().err == "error: observable 'N': matrix is not Hermitian\n"


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

    def test_negative_zero_imaginary_part_kept(self, capsys, tmp_path):
        # the ratio is scaled back part by part: complex * float would print 0.0 here
        path = tmp_path / "signed.json"
        path.write_text(json.dumps({
            "dims": [2], "pre": [[1.0, 0.0], [-1.0, 0.0]], "post": [[1.0, 0.0], [2.0, 0.0]],
            "observables": [{"name": "O", "matrix": [[[-2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
        }))
        assert main(["weak", "--file", str(path), "--observable", "O", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"observable": "O", "weak_value": [4.0, -0.0]}\n'

    @pytest.mark.parametrize("post, printed, code", [
        # (O psi)_0 overflows, but the post-selection reads only (O psi)_1: the value is finite
        ([[0.0, 0.0], [1.0, 0.0]], "1.7e+308 + 0.0i\n", 0),
        # the value itself, 1.7e308 * 1.5, overflows
        ([[1.0, 0.0], [0.0, 0.0]], "", 2),
    ])
    def test_near_maximum_observable(self, capsys, tmp_path, post, printed, code):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [0.5, 0.0]],
            "post": post,
            "observables": [{"name": "O", "matrix": [[[1.7e308, 0.0], [1.7e308, 0.0]],
                                                      [[1.7e308, 0.0], [-1.7e308, 0.0]]]}],
        }))
        assert main(["weak", "--file", str(path), "--observable", "O"]) == code
        captured = capsys.readouterr()
        assert captured.out == printed
        if code:
            assert captured.err.startswith("error: weak value overflows float64")
            assert captured.err.count("\n") == 1


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
            "--samples", str(10**16),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: samples 10000000000000000 exceeds MAX_MC_SAMPLES = 9007199254740992\n"

    @pytest.mark.parametrize("workers", [2, 1024, 1025])
    def test_workers_only_echoed(self, capsys, workers):
        docs = {}
        for value in (1, workers):
            assert main([
                "verify",
                "--file", str(FIXTURES / "random_dim3.json"),
                "--observable", "obs_a",
                "--samples", "20000",
                "--seed", "5",
                "--workers", str(value),
                "--format", "json",
            ]) == 0
            docs[value] = json.loads(capsys.readouterr().out)
            assert docs[value].pop("workers") == value
        assert docs[workers] == docs[1]

    def test_eigenvector_selection_keeps_every_trial(self, capsys, tmp_path):
        # pre = post = an eigenvector of a random d = 8 observable keeps every trial
        # in its outcome; rounding can put that outcome's kept probability
        # p_n / sum(p) * q_n a few ulp above 1, and these cases include some that do
        rng = np.random.default_rng(21)
        above_one = 0
        for case in range(8):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            matrix = (a + a.conj().T) / 2.0
            state = np.linalg.eigh(matrix)[1][:, rng.integers(8)]
            path = tmp_path / f"eigenvector-{case}.json"
            path.write_text(json.dumps({"dims": [8], "pre": pairs(state), "post": pairs(state),
                                        "observables": [{"name": "O", "matrix": pairs(matrix)}]}),
                            encoding="utf-8")
            problem = load(path)
            p_outcome, p_post = _sequential_born(problem.selection, problem.observables["O"])
            above_one += (p_outcome / p_outcome.sum() * p_post).max() > 1.0
            assert main(["verify", "--file", str(path), "--observable", "O",
                         "--samples", "1000", "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["samples_postselected"] == 1000
            assert sorted(row["frequency"] for row in doc["outcomes"]) == [0.0] * 7 + [1.0]
        assert above_one > 0

    @pytest.mark.parametrize("observable", ["sigma_x", "sigma_y", "sigma_z"])
    def test_mean_king_generalized_selection_passes(self, capsys, tmp_path, observable):
        # the mean-king export is a generalized selection (system and unmeasured ancilla):
        # verify simulates its ancilla dilation and agrees with the ABL rule, which makes
        # one outcome of each observable certain
        path = tmp_path / "mean-king.json"
        assert main(["export-scenario", "mean-king", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", "--file", str(path), "--observable", observable, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert sorted(row["frequency"] for row in doc["outcomes"]) == [0.0, 1.0]

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
            spin_box_file, "P_B_up", PointerConfig(1000.0, 1.0, 1.0)
        )
        assert result.positions.size == 640_641
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("g,points", [(5.39, 4096), (5.4, 4097), (11.8, 8193)])
    def test_csv_bytes_match_per_row_format(self, capsys, spin_box_file, tmp_path, g, points):
        # the grid reaches far enough into the Gaussian tails that the density
        # underflows to subnormals and then to exact zeros
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", repr(g),
            "--sigma", "1.0",
            "--out", str(csv_path),
        ])
        assert code == 0
        expected, result = per_row_pointer_csv(spin_box_file, "P_B_up", PointerConfig(g, 1.0, 1.0))
        assert result.positions.size == points
        assert np.any(result.density == 0.0)
        assert np.any((result.density > 0.0) & (result.density < np.finfo(float).tiny))
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("g,points", [(100.0, 64_641), (200.0, 128_641)])
    def test_strong_regime_csv_bytes_match_per_row_format(
        self, capsys, spin_box_file, tmp_path, g, points
    ):
        # mostly exact-zero densities, written as the literal "0" that %.17g gives
        csv_path = tmp_path / "pointer.csv"
        code = main([
            "pointer",
            "--file", str(spin_box_file),
            "--observable", "P_B_up",
            "--g", repr(g),
            "--sigma", "1.0",
            "--out", str(csv_path),
        ])
        assert code == 0
        expected, result = per_row_pointer_csv(spin_box_file, "P_B_up", PointerConfig(g, 1.0, 1.0))
        assert result.positions.size == points
        rows = expected.splitlines()[1:]
        assert sum(row.endswith(",0") for row in rows) >= 0.9 * len(rows)
        # both a zero run and a nonzero run span a block boundary
        nonzero = result.density != 0.0
        boundaries = np.arange(CSV_BLOCK_ROWS, points, CSV_BLOCK_ROWS)
        for value in (False, True):
            assert np.any((nonzero[boundaries - 1] == value) & (nonzero[boundaries] == value))
        assert csv_path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("flags,named", [
        (["--g", "inf", "--sigma", "1.0"], "coupling"),
        (["--g", "nan", "--sigma", "1.0"], "coupling"),
        (["--g", "1.0", "--sigma", "nan"], "sigma"),
        (["--g", "1.0", "--sigma", "1e300"], "sigma"),
        (["--g", "1e300", "--sigma", "1.0"], "MAX_POINTER_POINTS"),
        # 640,000,000,641 points, ~10 TB for two float64 arrays
        (["--g", "1e9", "--sigma", "1.0"], "MAX_POINTER_POINTS"),
        # printed mean_shift / g = 5.55e+303: quadrature noise over a subnormal g
        (["--g", "1e-320", "--sigma", "1.0"], "coupling * max|eigenvalue| = 9.99989e-321"),
        (["--g", "1e-14", "--sigma", "1.0"], "1e-09 * sigma = 1e-09"),
        # subnormal widths, below MIN_SIGMA = 2**-900
        (["--g", "1e-323", "--sigma", "1e-320"], "sigma must be finite and at least 1.18305e-271"),
        (["--g", "1e-311", "--sigma", "1e-308"], "sigma must be finite and at least 1.18305e-271"),
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

    @pytest.mark.parametrize("flag", [
        ["--half-range", "1.0", "--points", "4096"],
        ["--half-range", "20"],
        ["--points", "4096"],
    ])
    def test_bad_grid_exits_2(self, capsys, spin_box_file, tmp_path, flag):
        # the grid is worked out from --g, --sigma and the spectrum; it has no flags
        csv_path = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["pointer", "--file", str(spin_box_file), "--observable", "P_B_up",
                  "--g", "0.001", "--sigma", "1.0", *flag, "--out", str(csv_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not csv_path.exists()

    def test_overflowing_weak_value_leaves_no_csv(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "dims": [2],
            "pre": [[1.0, 0.0], [1.0, 0.0]],
            "post": [[1.0, 0.0], [-0.999999996, 0.0]],
            "observables": [{"name": "huge", "matrix": [[[1e300, 0.0], [1e300, 0.0]],
                                                         [[1e300, 0.0], [-1e300, 0.0]]]}],
        }))
        csv_path = tmp_path / "pointer.csv"
        code = main(["pointer", "--file", str(path), "--observable", "huge",
                     "--g", "1e-299", "--sigma", "1", "--out", str(csv_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: weak value overflows float64")
        assert captured.out == ""
        assert not csv_path.exists()

    def test_wide_pointer_matches_unit_pointer(self, capsys, three_box_file, tmp_path):
        # past |q| = 1.34e154 a squared offset overflows; g = sigma = 5e153 reaches 1e155
        capsys.readouterr()  # drop fixture output
        summaries = []
        for scale in ("1", "5e153"):
            code = main(["pointer", "--file", str(three_box_file), "--observable", "P_A",
                         "--g", scale, "--sigma", scale, "--out", str(tmp_path / "p.csv")])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            summaries.append([line for line in captured.out.splitlines()
                              if not line.startswith("mean_shift  ")])
        assert summaries[0] == summaries[1]
        assert "mean_shift / g      : 1" in summaries[0]
        assert "post-selection rate : 0.111111111111" in summaries[0]

    @pytest.mark.parametrize("g, sigma", [("1e-165", "1e-162"), ("1e-163", "1e-160")])
    def test_tiny_sigma_prints_the_unit_rate(self, capsys, three_box_file, tmp_path, g, sigma):
        # 2 pi sigma^2 underflows to 0 at sigma = 1e-162 and is subnormal at 1e-160;
        # the Gaussian's norm enters the rate once, as 1 / (sqrt(2 pi) sigma)
        capsys.readouterr()  # drop fixture output
        rates = []
        for flags in (["--g", "0.001", "--sigma", "1"], ["--g", g, "--sigma", sigma]):
            assert main(["pointer", "--file", str(three_box_file), "--observable", "P_C",
                         *flags, "--out", str(tmp_path / "p.csv")]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            rates += [line for line in captured.out.splitlines() if line.startswith("post-selection rate")]
        assert rates == ["post-selection rate : 0.111111166667"] * 2

    @pytest.mark.parametrize("g", [0.001, 0.05, 1.0, 5.39, 100.0])
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0])
    def test_power_of_two_rescaling_is_exact(self, capsys, three_box_file, tmp_path, g, sigma):
        """(g, sigma) -> 2**k (g, sigma) prints the same lines and scales the CSV exactly.

        Every printed line but the raw mean shift is unchanged, positions are 2**k
        times the originals, and densities normal in both runs 2**-k times. Checked
        at k in {-20, -3, 5, 30} and at both ends of the accepted range: the least k
        with 2**k sigma >= MIN_SIGMA, and the greatest whose grid width is finite.
        """
        capsys.readouterr()  # drop fixture output
        csv_path = tmp_path / "p.csv"

        def run(k):
            scale = math.ldexp(1.0, k)
            code = main(["pointer", "--file", str(three_box_file), "--observable", "P_C",
                         "--g", repr(g * scale), "--sigma", repr(sigma * scale), "--out", str(csv_path)])
            captured = capsys.readouterr()
            if code:
                return code, captured.err, None, None
            assert captured.err == ""
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
            lines = [line for line in captured.out.splitlines() if not line.startswith("mean_shift  ")]
            return code, lines, data[:, 0], data[:, 1]

        low = -899 - math.frexp(sigma)[1]
        # the grid spans 2 half_range, with half_range = 10 (sigma + g max|eigenvalue|),
        # which overflows past this k
        high = 1024 - math.frexp(2.0 * (10.0 * (sigma + g)))[1]
        assert math.ldexp(sigma, low) >= MIN_SIGMA > math.ldexp(sigma, low - 1)
        _, lines, positions, density = run(0)
        tiny = np.finfo(float).tiny
        for k in (-20, -3, 5, 30, low, high):
            code, scaled_lines, scaled_positions, scaled_density = run(k)
            assert code == 0, (k, scaled_lines)
            assert scaled_lines == lines, k
            assert np.array_equal(scaled_positions, np.ldexp(positions, k)), k
            normal = (density >= tiny) & (scaled_density >= tiny)
            assert np.array_equal(scaled_density[normal], np.ldexp(density[normal], -k)), k
        # one step past either end is a usage error that names its cause
        assert run(low - 1)[:2] == (2, f"error: sigma must be finite and at least {MIN_SIGMA:.6g}, "
                                       f"got {math.ldexp(sigma, low - 1)!r}\n")
        code, err, _, _ = run(high + 1)
        assert code == 2 and err.endswith("is wider than the float64 range\n") and err.count("\n") == 1

    @pytest.mark.parametrize("g", ["0.001", "0.05", "100"])
    def test_generalized_file_matches_its_dilated_pair(self, capsys, tmp_path, g):
        """`pointer` on sum_i alpha_i <phi_i| |psi_i> prints what it prints on the pair

            |Psi> = sum_i sqrt|alpha_i| e^(i arg alpha_i) |psi_i>|i>,
            <Phi| = sum_i sqrt|alpha_i| <phi_i|<i|,

        measured with O (x) I, the system index slow: every printed number within
        1e-10 relative or 1e-12 absolute (an outcome of probability 0 may print
        1e-33 on one side). At g = 100 the dilated eigenvalues, so the bump
        centers and the grid, differ from O's in their last bits and only the
        printed lines are compared; below it the grids are bit-equal and the
        densities agree within 8 eps times their maximum.
        """
        rng = np.random.default_rng(28)
        d, n = 4, 3
        alphas = rng.uniform(3.6, 3.8, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        unit = lambda v: v / np.linalg.norm(v, axis=0)
        psi = unit(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))  # column i is psi_i
        phi = unit(rng.normal(size=(d, n)) + 1j * rng.normal(size=(d, n)))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        o = (a + a.conj().T) / 2.0
        generalized = {
            "dims": [d],
            "generalized": [{"alpha": [alpha.real, alpha.imag], "pre": pairs(psi[:, i]), "post": pairs(phi[:, i])}
                            for i, alpha in enumerate(alphas)],
            "observables": [{"name": "O", "matrix": pairs(o)}],
        }
        root = np.sqrt(np.abs(alphas))
        dilated = {
            "dims": [d, n],
            "pre": pairs((psi * root * np.exp(1j * np.angle(alphas))).ravel()),
            "post": pairs((phi * root).ravel()),
            "observables": [{"name": "O", "matrix": pairs(np.kron(o, np.eye(n)))}],
        }
        numbers = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?")
        outputs = []
        for name, doc in (("generalized", generalized), ("dilated", dilated)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            csv_path = tmp_path / f"{name}.csv"
            code = main(["pointer", "--file", str(path), "--observable", "O",
                         "--g", g, "--sigma", "1", "--out", str(csv_path)])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            text = captured.out.replace(str(csv_path), "CSV")
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
            outputs.append((numbers.sub("#", text), [float(x) for x in numbers.findall(text)], data))
        (words, values, data), (dilated_words, dilated_values, dilated_data) = outputs
        assert words == dilated_words
        assert ("strong regime" in words) == (g == "100")
        assert np.allclose(values, dilated_values, rtol=1e-10, atol=1e-12), (values, dilated_values)
        if g != "100":
            assert np.array_equal(data[:, 0], dilated_data[:, 0])
            bound = 8 * np.finfo(float).eps * data[:, 1].max()
            assert np.abs(data[:, 1] - dilated_data[:, 1]).max() <= bound



def writer_grid(points, run_at_split):
    """Positions and densities in alternating zero and nonzero runs, subnormals among them.

    ``run_at_split`` (False for a zero run, True for a nonzero run) makes one
    run cross the block boundary nearest the middle of the rows.
    """
    rng = np.random.default_rng(points)
    positions = np.linspace(-1e3, 1e3, points)
    run_ends = np.cumsum(rng.geometric(1.0 / 300.0, size=points))
    nonzero = np.searchsorted(run_ends, np.arange(points), side="right") % 2 == 1
    if run_at_split is not None:
        split = round(points / (2 * CSV_BLOCK_ROWS)) * CSV_BLOCK_ROWS
        nonzero[split - 100:split + 100] = run_at_split
    values = rng.random(points) * 10.0 ** rng.uniform(-320.0, 0.0, size=points)
    return positions, np.where(nonzero, values, 0.0)


class TestPointerWriter:
    """A CSV of two blocks or more is formatted by this process and one forked child."""

    def pointer_argv(self, problem_path, csv_path):
        # 64,641 rows: the forked path
        return ["pointer", "--file", str(problem_path), "--observable", "P_B_up",
                "--g", "100", "--sigma", "1", "--out", str(csv_path)]

    @pytest.mark.parametrize("points, run_at_split", [
        (4096, None),  # one block: this process alone
        (8192, None),
        (12_288, None),
        (10_001, None),
        (64_641, False),
        (64_641, True),
    ])
    def test_forked_and_one_process_bytes_match_per_row_format(
        self, monkeypatch, tmp_path, points, run_at_split
    ):
        positions, density = writer_grid(points, run_at_split)
        assert np.any(density == 0.0) and np.any((density > 0.0) & (density < np.finfo(float).tiny))
        rows = "".join(f"{q:.17g},{d:.17g}\n" for q, d in zip(positions, density))
        expected = ("position,density\n" + rows).encode()
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        cli._write_pointer_csv(tmp_path / "forked.csv", positions, density)
        assert len(forks) == (points >= 2 * CSV_BLOCK_ROWS)
        monkeypatch.delattr(os, "fork")
        cli._write_pointer_csv(tmp_path / "one-process.csv", positions, density)
        assert (tmp_path / "forked.csv").read_bytes() == expected
        assert (tmp_path / "one-process.csv").read_bytes() == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["forked.csv", "one-process.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_output_is_written_by_one_process(self, monkeypatch, tmp_path):
        # a pipe cannot be deleted on failure like a partial file, and its
        # directory may be one where no spill file can be made
        positions, density = writer_grid(64_641, True)
        rows = "".join(f"{q:.17g},{d:.17g}\n" for q, d in zip(positions, density))
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()))
        reader.start()
        cli._write_pointer_csv(pipe, positions, density)
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert received == [("position,density\n" + rows).encode()]
        assert forks == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe"]

    @pytest.mark.parametrize("failing, message", [
        ("child", "error: CSV writer process exited with status 1\n"),
        ("parent", "error: no space left\n"),
    ])
    def test_failed_write_leaves_no_file_and_no_child(
        self, capsys, monkeypatch, spin_box_file, tmp_path, failing, message
    ):
        parent = os.getpid()
        csv_rows = cli._csv_rows

        def failing_rows(positions, density):
            if (os.getpid() == parent) is (failing == "parent"):
                raise OSError("no space left")
            return csv_rows(positions, density)

        monkeypatch.setattr(cli, "_csv_rows", failing_rows)
        capsys.readouterr()  # drop fixture output
        assert main(self.pointer_argv(spin_box_file, tmp_path / "pointer.csv")) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message
        assert list(tmp_path.iterdir()) == [spin_box_file]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_beside_a_live_thread_warns_of_nothing(self, capsys, spin_box_file, tmp_path):
        # Python 3.12+ warns when a process with other threads forks; it clears
        # the warning if a filter makes it an error, so record it instead
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                code = main(self.pointer_argv(spin_box_file, tmp_path / "pointer.csv"))
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert code == 0
        assert [str(warning.message) for warning in seen] == []

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


class TestBadFiles:
    """A file that cannot be read as a problem ends in one error line and exit 2."""

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe", "invalid JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
        (b'{"dims": [2], "pre": [[1, 0], [0, 0]], "post": [[1, 0], [0, 0]], "observable": []}',
         "unknown top-level key 'observable'"),
        (b'{"dims": [2], "pre": [[1, 0], [0, 0]], "post": [[1, 0], [0, 0]], "hamiltonain": []}',
         "unknown top-level key 'hamiltonain'"),
    ], ids=["not-utf-8", "nested-too-deep", "observable-misspelled", "hamiltonian-misspelled"])
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["abl", "--file", str(path), "--observable", "z"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err


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
            for loaded, built in zip(pair_states(tsv), pair_states(scenario.selection)):
                assert np.array_equal(loaded.amplitudes, built.amplitudes)
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


class TestSelectionKinds:
    """Every verb that reads a selection takes a pair or a generalized file; `abl`, `weak` and `pointer` move it to `--time`."""

    Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]

    def kernel_file(self, tmp_path, capsys, **extra):
        path = tmp_path / "pair.json"
        assert main(["export-scenario", "correlated-pair", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["observables"] = [{"name": "z", "matrix": self.Z}]
        path.write_text(json.dumps({**doc, **extra}))
        capsys.readouterr()  # drop export output
        return path

    def test_kernel_file_rejected_by_pointer(self, tmp_path, capsys):
        path = self.kernel_file(tmp_path, capsys)
        code = main(["pointer", "--file", str(path), "--observable", "z", "--g", "0.001",
                     "--sigma", "1", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: kernel problems have no single selection; use `run correlated-pair`\n"
        )
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("hamiltonian", [[], [{"duration": 1.0, "matrix": Z}]])
    def test_kernel_file_rejected_at_a_time(self, tmp_path, capsys, hamiltonian):
        # the selection is read before the schedule, with or without one
        extra = {"hamiltonian": hamiltonian} if hamiltonian else {}
        path = self.kernel_file(tmp_path, capsys, **extra)
        assert main(["abl", "--file", str(path), "--observable", "z", "--time=0.5"]) == 2
        assert capsys.readouterr() == ("", f"error: {cli._NO_SELECTION}\n")

    @pytest.mark.parametrize("verb, flags", [("weak", []), ("pointer", ["--g", "0.001", "--sigma", "1"])])
    def test_time_needs_a_hamiltonian(self, tmp_path, capsys, verb, flags):
        path, out = tmp_path / "three-box.json", tmp_path / "p.csv"
        assert main(["export-scenario", "three-box", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = [verb, "--file", str(path), "--observable", "P_A", "--time=0", *flags]
        assert main([*argv, "--out", str(out)] if verb == "pointer" else argv) == 2
        assert capsys.readouterr() == ("", "error: --time requires a hamiltonian in the problem file\n")
        assert not out.exists()

    def test_kernel_file_rejected_by_verify(self, tmp_path, capsys):
        # verify reads the selection by the one rule of every verb
        path = self.kernel_file(tmp_path, capsys)
        assert main(["verify", "--file", str(path), "--observable", "z", "--samples", "1000"]) == 2
        assert capsys.readouterr() == ("", f"error: {cli._NO_SELECTION}\n")

    def test_one_selection_rule(self):
        # no verb has a selection kind of its own, and a pair is read through its terms only
        assert list(inspect.signature(cli._selection).parameters) == ["problem", "time"]
        src = Path(cli.__file__).parent
        assert not re.search(r"\bTwoStateVector\b", (src / "cli.py").read_text(encoding="utf-8"))
        for path in sorted(src.glob("*.py")):
            assert not re.search(r"\.(forward|backward)\b", path.read_text(encoding="utf-8")), path.name

    def test_generalized_file_answers_verify(self, tmp_path, capsys):
        # a two-term file with a hamiltonian: verify runs at the selection times and prints
        # the abl column that `abl` prints, every bit of it
        path = tmp_path / "generalized.json"
        path.write_text(json.dumps({
            "dims": [2],
            "generalized": [{"alpha": [1.0, 0.0], "pre": [[1.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [0.0, 0.0]]},
                            {"alpha": [0.0, 2.0], "pre": [[0.0, 0.0], [1.0, 0.0]], "post": [[1.0, 0.0], [1.0, 0.0]]}],
            "hamiltonian": [{"duration": 1.0, "matrix": self.Z}],
            "observables": [{"name": "x", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]}],
        }))
        file = ["--file", str(path), "--observable", "x", "--format", "json"]
        assert main(["abl", *file]) == 0
        abl = json.loads(capsys.readouterr().out)["distribution"]
        assert main(["verify", *file, "--samples", "100000", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert [(row["outcome"], row["abl"]) for row in doc["outcomes"]] == [
            (row["outcome"], row["probability"]) for row in abl
        ]

    def test_weak_and_pointer_at_a_time_match_evolved_files(self, tmp_path, capsys):
        # `--time t` on a pair file answers as the file whose pre and post were evolved
        # to t by scipy's expm: the weak value and each CSV density within 1e-12, the
        # positions exactly, and each printed number to its 12 digits
        rng = np.random.default_rng(32)
        d, t = 4, 0.7
        h1, h2, o = ((a + a.conj().T) / 2.0 for a in rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d)))
        pre, post = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        late = expm(-1j * h2 * 0.6) @ expm(-1j * h1 * 0.2)  # from t = 0.7 to T = 1.5
        common = {"dims": [d], "observables": [{"name": "O", "matrix": pairs(o)}]}
        timed, evolved = tmp_path / "timed.json", tmp_path / "evolved.json"
        timed.write_text(json.dumps({**common, "pre": pairs(pre), "post": pairs(post), "hamiltonian": [
            {"duration": 0.9, "matrix": pairs(h1)}, {"duration": 0.6, "matrix": pairs(h2)}]}))
        evolved.write_text(json.dumps({**common, "pre": pairs(expm(-1j * h1 * t) @ pre),
                                       "post": pairs(late.conj().T @ post)}))

        def run(path, verb, *flags):
            out = tmp_path / f"{path.stem}.csv"
            argv = [verb, "--file", str(path), "--observable", "O", *flags]
            assert main([*argv, "--out", str(out)] if verb == "pointer" else argv) == 0
            return capsys.readouterr().out, out

        def numbers(text):
            # every number printed after the first line, which names the CSV
            return [float(x) for x in re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", text.split("\n", 1)[1])]

        w, v = (complex(*json.loads(run(path, "weak", *flags, "--format", "json")[0])["weak_value"])
                for path, flags in ((timed, ["--time=0.7"]), (evolved, [])))
        assert abs(w - v) <= 1e-12 * max(1.0, abs(w))
        for g in ("0.001", "100"):
            (text, csv), (other, other_csv) = (run(path, "pointer", *flags, "--g", g, "--sigma", "1")
                                               for path, flags in ((timed, ["--time=0.7"]), (evolved, [])))
            assert numbers(text) == pytest.approx(numbers(other), rel=1e-11, abs=1e-12)
            a, b = (np.loadtxt(path, delimiter=",", skiprows=1) for path in (csv, other_csv))
            assert np.array_equal(a[:, 0], b[:, 0])
            assert np.abs(a[:, 1] - b[:, 1]).max() <= 1e-12
