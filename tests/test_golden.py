"""Golden output: the sha256 of every file each subcommand writes.

Each of the six subcommands runs through ``wellpacket.cli.main`` in csv
and json on a small config, and every file it writes must hash to the
value recorded here.  Any change to a printed digit, a column, a header
line or the JSON layout shows up as a changed hash, so refactors of the
run drivers and writers can be checked for byte-identical output.

The hashes pin the floating-point results of the machine they were
recorded on, its OpenBLAS rounding included: on another BLAS or CPU a last
printed digit may differ, and the hashes must be recorded again there
before they can check a refactor.
"""

import hashlib
import os

import pytest

from wellpacket.cli import main

CONFIGS = {
    "evolve": """\
[packet]
n0 = 40
dx0 = 0.1
[grids]
x_points = 200
p_spacing = 2.0
[evolve]
times = 0, 0.5tau, 0.25T
representation = both
""",
    "observables": """\
[packet]
n0 = 40
dx0 = 0.1
[schedule]
mode = dense
start = 0
stop = 3tau
count = 301
""",
    "correlate": """\
[packet]
n0 = 400
dx0 = 0.1
[schedule]
n_stop = 100
[correlate]
fit = true
scan = true
scan_resolution = 0.25tau
""",
    "powerlaw": """\
[powerlaw]
k = 1, 2, 4, infinity
n_min = 50
n_max = 200
fit = true
fit_n0 = 120
fit_dn = 3
""",
    "scan-flatten": """\
[packet]
n0 = 40
[flatten]
dx0 = 0.05, 0.1
t_stop = 60tau
sample_step = 0.5tau
hold = 4
""",
    "timescales": """\
[packet]
n0 = 40
dx0 = 0.1
""",
}

GOLDEN = {
    ("correlate", "csv"): {
        "collapse_fit.json":
            "2973440b8c522fbf544534ae4d79a0a3f4abf47e419858844b5491e24bc9290e",
        "correlation.csv":
            "79bc812d5aaaabef66a925d628e6e82e7841140b89b3f8b766df44ed5ec75b77",
        "revival_scan.json":
            "82d8ddf0e7d37f60ca300e8a701c4a5c62f4a0e641f1390c4e0d73720e7ce18e",
    },
    ("correlate", "json"): {
        "collapse_fit.json":
            "2973440b8c522fbf544534ae4d79a0a3f4abf47e419858844b5491e24bc9290e",
        "correlation.json":
            "42ab2a85e5a246f827fbdf240a31477a15a05cbe4604a69de12fa88f9514f096",
        "revival_scan.json":
            "82d8ddf0e7d37f60ca300e8a701c4a5c62f4a0e641f1390c4e0d73720e7ce18e",
    },
    ("evolve", "csv"): {
        "density_momentum_00.csv":
            "406ed649ce3abf6de2096cad4650aa8020f74e88a9c55d37ddade757e62acdbb",
        "density_momentum_01.csv":
            "bd3b84608598971c166b5202b1a9eb764fb66d12d4426c7959ffde652ecd72e7",
        "density_momentum_02.csv":
            "77c700050824990287bd29f80e1ae288fa7767c0ba2d83dde3605bdd348acd2d",
        "density_position_00.csv":
            "c44ba3bdf1bf7b165b6a20f65fcdb4ff6d532b5ef8ab6720d7285e6857b3a51e",
        "density_position_01.csv":
            "81f491732be1315b510197e26474832cf4fe8eba62386144d8a2081dc2647c09",
        "density_position_02.csv":
            "18346f11e7a9d9d1bc5a1aa26ec839274d6fdf794a766924ebd9ae84e5051abc",
    },
    ("evolve", "json"): {
        "density_momentum_00.json":
            "6ffbf5fa94066e2a0a5dae21cb8d77e64d38908a7773c5f49b1d264e939fcf51",
        "density_momentum_01.json":
            "ae6fd407f2024530629bea9200e37cb2deaa77949d83b915598c2834369cc8ab",
        "density_momentum_02.json":
            "e908d0a17f906359e9140d822753ecf6cf365a3134c206faab44d33f247660e4",
        "density_position_00.json":
            "62b829aa7de83bb8523808ebba9e4e178a7dbe4eb730894f3c35cda75d7b0554",
        "density_position_01.json":
            "c22cd4787fea8190e45de86705feac66b22fbde888fe7aa6bc28702fa5ae880b",
        "density_position_02.json":
            "8b8e5dccd74c47d9092db07517b8a8245c21eedc984fb983bb43b15cd6515866",
    },
    ("observables", "csv"): {
        "observables.csv":
            "e31bf1f46aad7ac6b49e3f81e5147dea2396c5afff0229da56cd7284a19e9fba",
    },
    ("observables", "json"): {
        "observables.json":
            "819edc5633c755531db477e12585f8d44f7214da8aec8a5800561e435ee7cb9b",
    },
    ("powerlaw", "csv"): {
        "powerlaw.csv":
            "53f196f37c241f2c6c8de75da2b16914c1ff40d52e6d16a74d3b424a68d5939a",
        "powerlaw_fits.json":
            "3c67019da024ab163d2a4de065e54ad19fda1393c4ab0bc183e2fb88b355a586",
    },
    ("powerlaw", "json"): {
        "powerlaw.json":
            "e09e543339916ea879858610e4d5138a63f52bae612e14fa430154c27e1b20a9",
        "powerlaw_fits.json":
            "3c67019da024ab163d2a4de065e54ad19fda1393c4ab0bc183e2fb88b355a586",
    },
    ("scan-flatten", "csv"): {
        "flatten_dx0_0.05.csv":
            "8d41207803f321adc634295799ed80c94cf1ec7d93c4bd0edb4a08144b30d9b1",
        "flatten_dx0_0.1.csv":
            "28e4fbe3da065384a648fb278a44d75da0d0afe35eb3ce3dd4e506c085a403cf",
        "flatten_summary.json":
            "a51299c51b1cf60a5bca2e6b46aa05e1cba712bc14a59a039c4df11cace29f92",
    },
    ("scan-flatten", "json"): {
        "flatten_dx0_0.05.json":
            "aeef3e1c8e1ffdeaf8b38f72ff5b4a05a33729dac0661fbaf2d4923e9d4d079a",
        "flatten_dx0_0.1.json":
            "9da622019129e588da068cca0fe5702ff89b062e7691330752361a96e9f78df2",
        "flatten_summary.json":
            "a51299c51b1cf60a5bca2e6b46aa05e1cba712bc14a59a039c4df11cace29f92",
    },
    ("timescales", "csv"): {
        "timescales.csv":
            "8dbe70d3bb1b484e46953504317e446794f56460d94a2e201d67cfcd77b9293d",
    },
    ("timescales", "json"): {
        "timescales.json":
            "78546ff45b88fd17d44cb7ca20dace9e2a814b664149923f9bc4613a5c886c81",
    },
}


def _run(command: str, fmt: str, tmp_path) -> dict[str, str]:
    ini = tmp_path / f"{command}.ini"
    ini.write_text(CONFIGS[command])
    out = tmp_path / f"{command}-{fmt}"
    assert main([command, "--config", str(ini), "--out", str(out), "--format", fmt]) == 0
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(out / name, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_output_bytes_are_pinned(command, fmt, tmp_path):
    assert _run(command, fmt, tmp_path) == GOLDEN[command, fmt]
