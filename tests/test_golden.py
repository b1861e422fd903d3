"""Golden output: the sha256 of every file each subcommand writes.

Each of the six subcommands runs through ``wellpacket.cli.main`` in csv
and json on a small config (``correlate``, ``evolve`` and ``powerlaw`` on
two, ``observables`` on four: two series on the fold and two on the
chunks), and every file it writes must hash to the value recorded here.
Any change to a printed digit, a column, a header line or the JSON
layout shows up as a changed hash, so refactors of the run drivers and
writers can be checked for byte-identical output.
``observables`` and ``powerlaw`` are also pinned in JSON at precisions 3
and 16, besides the default 12, and ``observables``, ``powerlaw`` and
``powerlaw-half`` in CSV at the same two precisions.

The hashes pin the floating-point results of the machine they were
recorded on, its OpenBLAS rounding included: on another BLAS or CPU a last
printed digit may differ, and the hashes must be recorded again there
before they can check a refactor.
"""

import hashlib
import os

import pytest

from wellpacket import build_gaussian_packet, compute_timescales, parse_config, revival_scan
from wellpacket import packet
from wellpacket.cli import main
from wellpacket.packet import EigenExpansion, takes_fold

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
    # densities down to 1e-28, most cells below 10**(p-23): the tails the
    # float kernel scales by two powers of ten
    "evolve-tails": """\
[packet]
n0 = 800
dx0 = 0.03
[grids]
x_points = 400
p_spacing = 20.0
[evolve]
times = 0, 0.25T, 0.5T, 100.5tau
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
    # plain-number times: float phases, which always take the chunks
    "observables-float": """\
[packet]
n0 = 40
dx0 = 0.1
[schedule]
mode = dense
start = 0
stop = 0.01
count = 301
""",
    # exact times on a grid of q = 400000, too fine for the fold at four
    # samples: the chunks, over N = 255 levels, whose forms span rows
    # written in several spans
    "observables-explicit": """\
[packet]
n0 = 400
dx0 = 0.01
[schedule]
mode = explicit
times = 0, 1tau, 0.37T, 12345.678tau
""",
    # the fold past 255 levels: N = 363 on a grid of q = 600.  Its moments
    # take no BLAS product, so the bytes do not depend on the BLAS thread
    # count (the same at OPENBLAS_NUM_THREADS 1 and 2)
    "observables-large": """\
[packet]
n0 = 2700
x0 = 0.43
dx0 = 0.007
[schedule]
n_start = 0
n_stop = 5400
n_step = 9
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
    # a fine window around T/2 on a grid of q = 25600, much finer than its
    # 129 samples: the window scan of the revival_large benchmark, small
    "correlate-window": """\
[packet]
n0 = 400
dx0 = 0.01
[schedule]
n_stop = 20
[correlate]
scan = true
scan_start = 398tau
scan_stop = 402tau
scan_resolution = 0.03125tau
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
    # the half well from n = 0 (a blank T_rev cell), the oscillator, a
    # near-oscillator and the box; its fits succeed, report periodic and fail
    "powerlaw-half": """\
[powerlaw]
k = 1.5, 2, 2.05, 8, infinity
half = true
n_min = 0
n_max = 120
fit = true
fit_n0 = 80
fit_dn = 2
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

# Config names that are not a subcommand's own name -> the subcommand.
COMMAND = {"correlate-window": "correlate", "evolve-tails": "evolve",
           "powerlaw-half": "powerlaw", "observables-float": "observables",
           "observables-explicit": "observables", "observables-large": "observables"}

GOLDEN = {
    ("correlate", "csv"): {
        "collapse_fit.json":
            "365fb799426dc0c31e3061e84a3df0229c03efd4eecb1599596326f4000d774c",
        "correlation.csv":
            "ded104dea4ad11f7a6d6ddd8c77e55ca95486175b68a6d53f3ddb48c9211b806",
        "revival_scan.json":
            "9f83c4bc5444d5b5a92cce706cc4e99e473cfdb50f2a551f9c785639a1b2405e",
    },
    ("correlate", "json"): {
        "collapse_fit.json":
            "365fb799426dc0c31e3061e84a3df0229c03efd4eecb1599596326f4000d774c",
        "correlation.json":
            "59e9363a04ffedddf592aae3318a2c6b061d461e0c5a92d32c2a2026c007f83b",
        "revival_scan.json":
            "9f83c4bc5444d5b5a92cce706cc4e99e473cfdb50f2a551f9c785639a1b2405e",
    },
    ("correlate-window", "csv"): {
        "correlation.csv":
            "36ceadc61ce7c6619a377f72627cb65dd82d50423b25dacc2037e77453c4e93c",
        "revival_scan.json":
            "0e830c62f1072d871a4cae757700a94dff032b87717413ee145a2e255a356797",
    },
    ("correlate-window", "json"): {
        "correlation.json":
            "f4e1ac6e1b05446324168f02ea04df5f3c11f1f967de74e0d5f213f73cb3b365",
        "revival_scan.json":
            "0e830c62f1072d871a4cae757700a94dff032b87717413ee145a2e255a356797",
    },
    ("evolve", "csv"): {
        "density_momentum_00.csv":
            "406ed649ce3abf6de2096cad4650aa8020f74e88a9c55d37ddade757e62acdbb",
        "density_momentum_01.csv":
            "b94b4e19048d11112c0c8a7133d1ffef4e52a909025f2adfccd542f814617d21",
        "density_momentum_02.csv":
            "324cb20a57c7a6e1c56689aadbd014ee53b008855fc1b8758d7880e8800fe673",
        "density_position_00.csv":
            "c44ba3bdf1bf7b165b6a20f65fcdb4ff6d532b5ef8ab6720d7285e6857b3a51e",
        "density_position_01.csv":
            "7f31795662d677ee796d5d42db63aefdfff3d4d440f96110e698b1e1f58a5cd1",
        "density_position_02.csv":
            "18346f11e7a9d9d1bc5a1aa26ec839274d6fdf794a766924ebd9ae84e5051abc",
    },
    ("evolve", "json"): {
        "density_momentum_00.json":
            "6ffbf5fa94066e2a0a5dae21cb8d77e64d38908a7773c5f49b1d264e939fcf51",
        "density_momentum_01.json":
            "ef5c7a32bba33ad307f4262175889b0b102b9427474a4c2e06d7fae3fca2ea80",
        "density_momentum_02.json":
            "679a52111be151360d8392b2be6ee78ce51f37804c48af93cad4624a6e351ba5",
        "density_position_00.json":
            "62b829aa7de83bb8523808ebba9e4e178a7dbe4eb730894f3c35cda75d7b0554",
        "density_position_01.json":
            "a4d14b899a9725d0a0674a9f0206e12ed3ecab5526a023078bbee8a4f6904024",
        "density_position_02.json":
            "8b8e5dccd74c47d9092db07517b8a8245c21eedc984fb983bb43b15cd6515866",
    },
    ("evolve-tails", "csv"): {
        "density_momentum_00.csv":
            "8421e0a34facfe0e488b389838691f97e9b93eb5e6dd074582905c1cc744eb40",
        "density_momentum_01.csv":
            "a6d4079d11666e991db3138fadf26c70d8046f99888a8b933fe3f56bc8260dac",
        "density_momentum_02.csv":
            "7808e68d8db8b1ad4e8d4d06a3d26a53c8e7e1b46c83940b82bb22db1f490634",
        "density_momentum_03.csv":
            "070ff8d6f5464ea741e7b1dd36c8a76389df718fbd32c2ef90444f9e42a51c76",
        "density_position_00.csv":
            "8b9cf60bcdc5bde5ae8cfbaaf19fe6a60804c92b5bb8e68e860749302368e53b",
        "density_position_01.csv":
            "a768558bb1916c6918e58ee8ef179c765b092030d2f4d63837a5e470a5c95fe1",
        "density_position_02.csv":
            "e06daba3258f2c3e8830ab5b1a84ca97e74c1b5604a2868a7c582c84466e3ceb",
        "density_position_03.csv":
            "8b658ac7c9ea20d0c5ce95a7b59708cc35e6ea840e6c6bcbfaea6e29a59a9d50",
    },
    ("evolve-tails", "json"): {
        "density_momentum_00.json":
            "d9a8f435bafaadc7be6419ad525aaf48a52f19acc570312b370478f5a7656008",
        "density_momentum_01.json":
            "c59a65b2bd706c406f5bdc072a106f565118d962403e11e863e9b7f9f5f0c3dd",
        "density_momentum_02.json":
            "6e94db0ad50434f20972f2edee966ceafd943e5119f2fd7403f801e47ad1b70d",
        "density_momentum_03.json":
            "043602ed9b71ef917242b10fd955807d076adf5536a3e06fd73f6e84c613afb1",
        "density_position_00.json":
            "cb31a1e7b700c1ba80b827576ac7aca1afe43665d36e74e3328e55743a6d65fb",
        "density_position_01.json":
            "593c68f689ab0757d268a41a81676a231d23b5e05a41dd8e21efcdbe2b4f451b",
        "density_position_02.json":
            "623a255f6d1c0bbff4ea8f9324d6d4a732be0866b4fd7e6427db239eca8006c3",
        "density_position_03.json":
            "f6a23909d654630a391a3464b3f0eea1db93edf73943dcb16e4b741187da8169",
    },
    ("observables", "csv"): {
        "observables.csv":
            "56e38f6ba3da0ca1ad6e365a6a2e102c6568a6cf33382842aef5f54cca308996",
    },
    ("observables", "json"): {
        "observables.json":
            "e1b7cbc5fa4e8902eb11507cd74247ed032f1ed13b0017631aa1d4111159e068",
    },
    ("observables-explicit", "csv"): {
        "observables.csv":
            "c8c9879b33a401b3072504c5c824a581201cb43d6fd2bd2bce020938408c21f2",
    },
    ("observables-explicit", "json"): {
        "observables.json":
            "ccea2dd13418b8d7617c00da6308cc43e06488e7c6c366350652e047dd875be0",
    },
    ("observables-large", "csv"): {
        "observables.csv":
            "ff2e36b0d7429677932aca2da5d5f209c2124b3432ff7855c9814c3f9d8b39fc",
    },
    ("observables-large", "json"): {
        "observables.json":
            "ced1c335aa32e88dc2311a427233f9844bca94636c7cd8389fce06dd4b90c1c9",
    },
    ("observables-float", "csv"): {
        "observables.csv":
            "e819e0aa455f3299c1016f0fcdec888de6c56f5e6396928c9df2ca5ffa4cb623",
    },
    ("observables-float", "json"): {
        "observables.json":
            "f8ce726c9b2de7c72b4083a9a44034769c1448454602b95a6a0a699f6da51e7a",
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
    ("powerlaw-half", "csv"): {
        "powerlaw.csv":
            "d22b7fa25badb945446d2ad87f9b7904b4a6b284eda38ab0314174fc7e7abf7e",
        "powerlaw_fits.json":
            "50999352929a014b17e52f350387ca894b131721d5ee3a72bf15e38c46f45fde",
    },
    ("powerlaw-half", "json"): {
        "powerlaw.json":
            "506f1baae43fd07e3fdbd816638cb0a11341cc405dbd9ae9b319f2b24be6192e",
        "powerlaw_fits.json":
            "50999352929a014b17e52f350387ca894b131721d5ee3a72bf15e38c46f45fde",
    },
    ("scan-flatten", "csv"): {
        "flatten_dx0_0.05.csv":
            "8d41207803f321adc634295799ed80c94cf1ec7d93c4bd0edb4a08144b30d9b1",
        "flatten_dx0_0.1.csv":
            "8ba4f0528a50dd435d325d16fb3a82ea26e042bc0903cb869c5a7d7826903778",
        "flatten_summary.json":
            "a51299c51b1cf60a5bca2e6b46aa05e1cba712bc14a59a039c4df11cace29f92",
    },
    ("scan-flatten", "json"): {
        "flatten_dx0_0.05.json":
            "aeef3e1c8e1ffdeaf8b38f72ff5b4a05a33729dac0661fbaf2d4923e9d4d079a",
        "flatten_dx0_0.1.json":
            "c7b0d8ea571ba965987b34180fecd53f6b5c26fae462753df0d215d3a7ebde37",
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


def _run(name: str, fmt: str, tmp_path, *options: str) -> dict[str, str]:
    ini = tmp_path / f"{name}.ini"
    ini.write_text(CONFIGS[name])
    out = tmp_path / f"{name}-{fmt}"
    command = COMMAND.get(name, name)
    assert main([command, "--config", str(ini), "--out", str(out), "--format", fmt,
                 *options]) == 0
    hashes = {}
    for name in sorted(os.listdir(out)):
        with open(out / name, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_are_pinned(name, fmt, tmp_path):
    assert _run(name, fmt, tmp_path) == GOLDEN[name, fmt]


@pytest.mark.parametrize("name, fold", [("observables", True), ("observables-large", True),
                                        ("observables-float", False),
                                        ("observables-explicit", False)])
def test_observables_configs_pin_both_phase_paths(name, fold):
    # the golden observables series take the fold, at N = 51 and N = 363;
    # the float and explicit ones take the chunks, so that the hashes pin
    # both paths of _series
    cfg = parse_config(CONFIGS[name])
    exp = build_gaussian_packet(cfg.packet, cfg.system)
    report = compute_timescales(cfg.system, cfg.packet)
    times = cfg.schedule.resolve(report.tau, report.T_rev, cfg.packet.n0)
    assert takes_fold(times, exp.coefficients.size ** 2) == fold


@pytest.mark.parametrize("name, exact, path", [("correlate", True, "fold"),
                                               ("correlate-window", True, "split"),
                                               ("correlate-window", False, "map_chunks")])
def test_correlate_configs_pin_the_three_phase_paths(monkeypatch, name, exact, path):
    # the golden full-period scan folds and the window scan splits; the
    # window at plain-number times, as a caller without theta asks for it,
    # takes the chunks
    cfg = parse_config(CONFIGS[name])
    exp = build_gaussian_packet(cfg.packet, cfg.system)
    report = compute_timescales(cfg.system, cfg.packet)
    start, stop, res, theta = cfg.correlate.scan_grid(report.tau, report.T_rev, cfg.packet.n0)
    calls = []

    def spy(method):
        original = getattr(EigenExpansion, method)

        def call(*args, **kwargs):
            calls.append(method)
            return original(*args, **kwargs)
        return call

    for method in ("fold", "split", "map_chunks"):
        monkeypatch.setattr(EigenExpansion, method, spy(method))
    revival_scan(exp, (start, stop), res, cfg.correlate.min_height,
                 theta=theta if exact else None)
    assert calls == [path]


def test_evolve_fields_take_exact_chunk_blocks(monkeypatch, tmp_path):
    # the golden evolve times 0, 0.5tau and 0.25T are exact, theta = 0, 1/160
    # and 1/4: each field takes its phases from one exact chunk block, a row
    # of N unit roots, with no fold, no split, no float phases and no array
    # of length q
    cfg = parse_config(CONFIGS["evolve"])
    N = build_gaussian_packet(cfg.packet, cfg.system).coefficients.size
    seen = []
    roots = packet.unit_roots

    def recorded(r, q):
        seen.append((r.shape, q))
        return roots(r, q)

    def refused(*args, **kwargs):
        raise AssertionError("not an exact chunk block")

    monkeypatch.setattr(packet, "unit_roots", recorded)
    monkeypatch.setattr(packet, "float_phases", refused)
    for method in ("fold", "split"):
        monkeypatch.setattr(EigenExpansion, method, refused)
    assert _run("evolve", "csv", tmp_path) == GOLDEN["evolve", "csv"]
    assert N < 160
    assert seen == [((1, N), q) for _ in ("position", "momentum") for q in (1, 160, 4)]


# JSON at precision 3 writes most floats through the `%g` shortcut with
# its fix-ups (exponent form, integral text), and precision 16 writes every
# float through the per-cell repr, so the two pin both float paths of the
# JSON writer.
GOLDEN_PRECISION = {
    ("observables", 3): {
        "observables.json":
            "301f3aa0c979918019937e06868127e6a790b2016612a25624d7f9ed7b721400",
    },
    ("observables", 16): {
        "observables.json":
            "085695acc649c86579c870f2b1776b78c5a44a2a46bfac431b46df04a85f441e",
    },
    ("powerlaw", 3): {
        "powerlaw.json":
            "065ef9606cfc2d463b529f888c10f77f5a18bf41402e64c743946f72a35d9b0c",
        "powerlaw_fits.json":
            "705529d9dda5f593688cb4b8741c04907495c49c6c64306cdb85c33f5b915de8",
    },
    ("powerlaw", 16): {
        "powerlaw.json":
            "25543b1b414c67fd2f33977a8220ef11b484c68ee3fc9deec7d7ab9e1ddbdb8c",
        "powerlaw_fits.json":
            "1ca471adbcaf3b12813455a27095759b13298a8e8c7700683463865e5d3f4792",
    },
}


@pytest.mark.parametrize("precision", [3, 16])
@pytest.mark.parametrize("name", ["observables", "powerlaw"])
def test_json_bytes_are_pinned_at_other_precisions(name, precision, tmp_path):
    hashes = _run(name, "json", tmp_path, "--precision", str(precision))
    assert hashes == GOLDEN_PRECISION[name, precision]


# CSV at precision 3 prints many cells in exponent form (p_mean near zero,
# the power-law E and T_rev), precision 16 prints every digit a float keeps,
# and the power-law tables mix floats with the "", "periodic" and
# "infinity" string cells; together they pin every cell class of the CSV
# writer.
GOLDEN_CSV_PRECISION = {
    ("observables", 3): {
        "observables.csv":
            "5a19254d5ab99afdb80c60ba5baa3c52fe6a0c2249cae06cd2da2e9065e1e68b",
    },
    ("observables", 16): {
        "observables.csv":
            "01e4a9a46e552924d1f4f34308b12ab5c3be09b1e704b7373ddbbfb38a3bcb20",
    },
    ("powerlaw", 3): {
        "powerlaw.csv":
            "1a529a2a13b406cf11902cec52671dd0f82a76c5c1a02b39f9a47aeda33e7d7e",
        "powerlaw_fits.json":
            "705529d9dda5f593688cb4b8741c04907495c49c6c64306cdb85c33f5b915de8",
    },
    ("powerlaw", 16): {
        "powerlaw.csv":
            "b61796596de43a565c84eb021052bbfcbe4db2a0fd479887a20237d8e6e1cf70",
        "powerlaw_fits.json":
            "1ca471adbcaf3b12813455a27095759b13298a8e8c7700683463865e5d3f4792",
    },
    ("powerlaw-half", 3): {
        "powerlaw.csv":
            "4d7fbf8f1b3adfddfc69439a16cbe21788c657ba765c277e6e4d6baf65b28766",
        "powerlaw_fits.json":
            "3e3a34bf0573690c59320277d243aecffa410bbb1f245917bbf4821002f07cd6",
    },
    ("powerlaw-half", 16): {
        "powerlaw.csv":
            "6d3a000b182516c4b736b0e1334cf87201e450e699d24c2e86b3cee59370987f",
        "powerlaw_fits.json":
            "b8e0138ffd0bec4a2fdb3cfc72f0daf33b2ac78c0f2e765345f255846eaca24a",
    },
}


@pytest.mark.parametrize("precision", [3, 16])
@pytest.mark.parametrize("name", ["observables", "powerlaw", "powerlaw-half"])
def test_csv_bytes_are_pinned_at_other_precisions(name, precision, tmp_path):
    hashes = _run(name, "csv", tmp_path, "--precision", str(precision))
    assert hashes == GOLDEN_CSV_PRECISION[name, precision]


if __name__ == "__main__":
    # python tests/test_golden.py [NAME ...]: the hashes that the configs NAME
    # (all of them by default) write now, in GOLDEN's layout, for a re-record
    import contextlib
    import io
    import pathlib
    import sys
    import tempfile

    for name in sys.argv[1:] or sorted(CONFIGS):
        for fmt in ("csv", "json"):
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                hashes = _run(name, fmt, pathlib.Path(tmp))
            print(f'    ("{name}", "{fmt}"): {{')
            for file, digest in hashes.items():
                print(f'        "{file}":\n            "{digest}",')
            print("    },")
