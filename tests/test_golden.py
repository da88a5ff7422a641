"""Golden outputs: sha256 of the exported scenario files, of `run` and of `pointer`.

The hashes pin the exact bytes of ``export-scenario`` for each of the five
scenarios and of ``run <name>`` in table and JSON form. They were captured
before the problem-file and scenario types were reduced to one ``selection``
slot, so they show that refactors of those types leave every output byte
unchanged. The ``EXPORTED`` hashes were recaptured when ``save`` moved from
a 17-significant-digit writer to ``json.dumps`` (shortest-repr floats, one
line; every number unchanged); the ``run`` and ``pointer`` hashes were not.
The ``pointer`` hashes pin its stdout and CSV on the three-box
export in the weak regime (every density nonzero) and the strong regime
(mostly exact zeros, written as ``0``); they were captured before the
pointer's working set was cut from eight float64 words per grid point to
four. The two CSV hashes were recaptured when the packets dropped the
Gaussian's norm ``(2 pi sigma^2)^(-1/4)`` and the density was normalized by
its own mass: every position and stdout byte was unchanged, and every
density moved by at most 5.1 eps times the peak density (the stated
bound is 8 eps). The ``FULL_PRECISION`` hashes pin ``abl`` and ``weak`` in
JSON, which prints every bit of a merged eigenvalue that ``run``'s ``.10g``
table hides, on observables that are degenerate (three-box ``P_A``, spin-box
``P_A_up``) or read under a generalized selection (mean-king ``sigma_z``);
they were captured while the merged mean and the state norm still went
through ``np.mean`` and ``np.linalg.norm``. The printed residues (Gram
deviations, max |z|) depend on floating-point rounding, so a different NumPy
or LAPACK build may need the hashes recaptured.
"""

import hashlib

import pytest

from tsvlab.cli import main

EXPORTED = {
    "correlated-pair": "7b3bad109351c98135588fd563350a34046a60a7873a52337b848eb51f9b5900",
    "mean-king": "8a979bbf3274b4e9631e7748a15fa44ce2aa17238ba61750dd4e3e867b9f92a1",
    "spin-box": "c56f3747769cca25124458d2833550652d95d5f3d374ac05b7856834fc5ec057",
    "spin-xz": "1d7e04d00338f3493c03ca090f7feebac3d7ae01b39cbbeddce26d733e583f8c",
    "three-box": "5cea045b403b8207c47ce8bd71e41fb2907fe661b8fe4054a23857aa9de43a73",
}

RUN_STDOUT = {
    ("correlated-pair", "table"): "55d3a000e2406d44952fd3670a2aa2be47ec7d8b35053e847e56cf5270911a98",
    ("correlated-pair", "json"): "0a1c8cf6d9f2fbdf0da8d069bf13335d8f8e8eaae71848812d867f3556fc1c38",
    ("mean-king", "table"): "49cb1d73cc40da263ac049e2acad0cf849c0cad16240b59cf0c44847201ecb4f",
    ("mean-king", "json"): "8cca261449d1ca8f6051d05d697f7f8a96b16b3683c87e31dac8eaa836e0b297",
    ("spin-box", "table"): "a98dc20dd3ab1dfc88d278d1b4b733bf765504e48beb17e677c011c522e75026",
    ("spin-box", "json"): "0a4ced60c6a9ac02e0d3a6f51450e5cb9ab3b3bb915030204460ec47b713e8b2",
    ("spin-xz", "table"): "a29746830025795ca07d87bab4e33cbdf6594df228612143f758419350ea86a4",
    ("spin-xz", "json"): "3acf60cb4a129fb3c37549db812754abb5f0d2048ec37905cb0cfe190bdb7259",
    ("three-box", "table"): "bca040231655486b1ed2d7b7a7a526ec3dce52d0e970c34dfff7b455fdb54f45",
    ("three-box", "json"): "2dae3f4115b0dfc4c75072d4630264a1b16f804c1e4be1bebf0094eab8e22b20",
}

# --g: (stdout, CSV, CSV rows) of `pointer --observable P_C --sigma 1` on three-box
POINTER = {
    "0.001": (
        "03d50d81ea1a7b348fafe613bb4651eb8ed51b1d22b5775dda7d85b3597bf67b",
        "9e5512ba5ecd085c928f99d2b1ceb19c9e9de082c58b2acd15d0dcb90616a646",
        4096,
    ),
    "100": (
        "2bcd61899bf9b843e76285c9a4965104dcc8e0edd8e466e76e92e424a7f27c61",
        "980718a59229e435beaab5ce41d926918f4cbca4bb3632c5911d11f4caf821d9",
        64641,
    ),
}

# (scenario, observable, verb): stdout of `<verb> --file <export> --observable <observable> --format json`
FULL_PRECISION = {
    ("mean-king", "sigma_z", "abl"): "78e0b945fa58db91122fec162aebb699de56cf54c1ae6fd42e94de6616508709",
    ("mean-king", "sigma_z", "weak"): "5f4a554eed51c2268367ec65ba7d185ec6b4a5657ec2fb7380f2a71445e90959",
    ("spin-box", "P_A_up", "abl"): "00370234079dc01da613b2227acd880d6e190414bb468c2993571ea94681cfde",
    ("spin-box", "P_A_up", "weak"): "a7d8ca91c61b2370b165356d05aa0065f7a528c6760758cf11b624f10214b7d2",
    ("three-box", "P_A", "abl"): "8c3671e3783585be2185c3488203dabf242a27179b24785f6c7f5342252a01a9",
    ("three-box", "P_A", "weak"): "52980cd81bd30ee778bb4bce8f6933b298bde1cbfe31d6f95b3fcb9f0bdc8448",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPORTED))
def test_exported_file_bytes(tmp_path, capsys, name):
    path = tmp_path / f"{name}.json"
    assert main(["export-scenario", name, "--out", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote {path}\n"
    assert sha256(path.read_bytes()) == EXPORTED[name]


@pytest.mark.parametrize("name,fmt", sorted(RUN_STDOUT))
def test_run_output_bytes(capsys, name, fmt):
    assert main(["run", name, "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out.encode()) == RUN_STDOUT[(name, fmt)]


@pytest.mark.parametrize("g", sorted(POINTER))
def test_pointer_output_bytes(tmp_path, monkeypatch, capsys, g):
    monkeypatch.chdir(tmp_path)
    assert main(["export-scenario", "three-box", "--out", "three-box.json"]) == 0
    capsys.readouterr()
    argv = ["pointer", "--file", "three-box.json", "--observable", "P_C",
            "--g", g, "--sigma", "1", "--out", "d.csv"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    data = (tmp_path / "d.csv").read_bytes()
    stdout_hash, csv_hash, rows = POINTER[g]
    assert data.count(b"\n") == rows + 1
    assert sha256(captured.out.encode()) == stdout_hash
    assert sha256(data) == csv_hash


@pytest.mark.parametrize("name,observable,verb", sorted(FULL_PRECISION))
def test_full_precision_output_bytes(tmp_path, capsys, name, observable, verb):
    path = tmp_path / f"{name}.json"
    assert main(["export-scenario", name, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main([verb, "--file", str(path), "--observable", observable, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out.encode()) == FULL_PRECISION[(name, observable, verb)]
