"""Committed golden files for small cells.

Regenerate intentionally with

    BIMLAB_REGEN_GOLDEN=1 pytest tests/test_golden.py

after verifying that a behavior change is wanted.
"""

import hashlib
import os
from pathlib import Path

import pytest

from bimlab import (
    InstanceParams,
    emit_bimachine,
    emit_transducer,
    handcrafted_bimachine,
    instance_transducer,
    parse_bimachine,
    remove_input_epsilons,
    render_csv,
    run_experiment,
    to_bimachine,
    trim,
)

from helpers import built, reduced_handcrafted_text

GOLDEN = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("BIMLAB_REGEN_GOLDEN"))


def check(name: str, text: str):
    path = GOLDEN / name
    if REGEN:
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"regenerated {name}")
    assert path.read_text(encoding="utf-8") == text, f"{name} drifted"


def test_golden_instance_files():
    check("instance_k2_n1.txt", emit_transducer(instance_transducer(InstanceParams(2, 1))))
    check("instance_k2_n2.txt", emit_transducer(instance_transducer(InstanceParams(2, 2))))


def test_golden_generic_bimachine():
    prepared = trim(remove_input_epsilons(instance_transducer(InstanceParams(2, 1))))
    check("generic_k2_n1_reduced.txt", emit_bimachine(to_bimachine(prepared).reduce()))


def test_golden_handcrafted_bimachine():
    check(
        "handcrafted_k2_n1_reduced.txt",
        emit_bimachine(handcrafted_bimachine(InstanceParams(2, 1)).reduce()),
    )


def test_golden_psi_line_count_matches_table():
    for name in ("generic_k2_n1_reduced.txt", "handcrafted_k2_n1_reduced.txt"):
        text = (GOLDEN / name).read_text(encoding="utf-8")
        machine = parse_bimachine(text)
        lines = sum(1 for line in text.splitlines() if line.startswith("psi "))
        assert lines == len(machine.psi)


def test_golden_experiment_csv():
    rows = run_experiment([(2, 1), (2, 2)], seed=7)
    check("experiment_kmax2_nmax2_seed7.csv", render_csv(rows))


# SHA-256 of the emitted text of the machines each grid cell builds, raw and
# reduced, and of the reduced handcrafted machines of the large cells.
EMIT_SHA256 = {
    ("generic", 2, 1, "raw"): "110f0da39605949c98b0bc42f3ca2672d5fa1a67b6e4190b4b739847cf792814",
    ("generic", 2, 1, "reduced"): "110f0da39605949c98b0bc42f3ca2672d5fa1a67b6e4190b4b739847cf792814",
    ("handcrafted", 2, 1, "raw"): "3e917efa7b1a93684166e6b616dc469dbcba0f44210e116f3f85f6bdeffefc7c",
    ("handcrafted", 2, 1, "reduced"): "d6f45d780b87be7ae34aba6132c90e648858c9c1d20112ca054a3e4d6375c4a3",
    ("generic", 2, 2, "raw"): "6c8efc70e46f77a8da381c0c1e3b18bb3dca36b59778e533b6e03cdee2861636",
    ("generic", 2, 2, "reduced"): "e4fd05c92e47eb1e5368c33e57076c6ce0bc7e31de27d075163f96ea6acd3bfe",
    ("handcrafted", 2, 2, "raw"): "efda1f5384c3959678fb0edd47af45a825fe6cb722833c5c221d5e1bc2f98230",
    ("handcrafted", 2, 2, "reduced"): "463dc3b04d8bd8a6080da4a57fd4da900157d0a4e07050dde5749d16d6e4b92c",
    ("generic", 2, 3, "raw"): "d764eab6f1deaca0871a962327edbb5284a829ace755db2f7c5dbd845870637e",
    ("generic", 2, 3, "reduced"): "4e1458d35bc53f8326548edbcd3770f99b753d9a87ae187aea88a0a7e22873f0",
    ("handcrafted", 2, 3, "raw"): "67c1adbe8591325f26e26cd774bc86f425a19df2ad0131af3698fbc7e429781d",
    ("handcrafted", 2, 3, "reduced"): "ab373c4a02e6fc5137be80e2f795b98ed7c496a5fbd21c513227abeee4c50605",
    ("handcrafted", 2, 4, "raw"): "1492cc63e87cd24cdfbd11411c65c22adc801dca7c325596c2d8801ba4452cf6",
    ("handcrafted", 2, 4, "reduced"): "b9997ff57d3a16ed44581d86e2e4771e1d57959b8e2597021a8634ee88a85543",
    ("generic", 3, 1, "raw"): "60d2ddb716777c6888b2ec60db1a93dc6fee283eb1618dae4428868fb4ce43a5",
    ("generic", 3, 1, "reduced"): "60d2ddb716777c6888b2ec60db1a93dc6fee283eb1618dae4428868fb4ce43a5",
    ("handcrafted", 3, 1, "raw"): "95e50655e064f0e889e5cb19038c0d07f9cfb1490266d9db1031397dff21c259",
    ("handcrafted", 3, 1, "reduced"): "07ccd69f0314bb802c6d699997a06872b7d49b8c10728c6ce4c240e9e46d5522",
    ("generic", 3, 2, "raw"): "56e197ef3570302647112f7b7672aa10abd316f0e09fdee8a939dcd75e503b5d",
    ("generic", 3, 2, "reduced"): "674244a49a1fa82ddc534f5ea48987cf0a2b04ca483695447bc952a08dd5c639",
    ("handcrafted", 3, 2, "raw"): "c887fb034952dcf1a22a02908caf25fa3d475d322a61f4a3b1d9c4d2975e24bf",
    ("handcrafted", 3, 2, "reduced"): "8d734ba39d987193cfd0930b1c3c4039ca7fd4f6da168fb0a2bf4bc96df57b88",
    ("generic", 3, 3, "raw"): "5b051aaf0aad667de8243b8dc3cde83b442c8e59876371b83f7485da57f50af0",
    ("generic", 3, 3, "reduced"): "1b4ff6caa62cf1fbd5bdb7d5b222a307d79b3888a6eab63de7d7216fc831fc3d",
    ("handcrafted", 3, 3, "raw"): "f6da31fc7463112746df0a2d6bc85d8013d38d3f96a93de9261ef1737489e19c",
    ("handcrafted", 3, 3, "reduced"): "c29c483c8c22c3a0ee9670c5c43af32bad4db470e33f943f56fc3a873e803410",
    ("handcrafted", 3, 4, "raw"): "b697d7567bb6614b65dba3364b9322ddca26ce14ccd81197282fca52fcbc5861",
    ("handcrafted", 3, 4, "reduced"): "4166fdc25978c78d641f7051f4fe6d286cfcb2e9892919cdd23331e9f541c2f0",
    ("handcrafted", 3, 5, "reduced"): "dd74847090a6289fbd7363cb4c0556d73ce31eaac9b36cd3415e3a35b147f766",
    ("handcrafted", 2, 8, "reduced"): "8a6cedff040a4d6adbb7127ebfb7088486e764189317e52228625ae72a89cb0e",
}


@pytest.mark.parametrize("construction,k,n,form", sorted(EMIT_SHA256))
def test_emitted_machines_keep_their_bytes(construction, k, n, form):
    if (k, n) in ((3, 5), (2, 8)):
        text = reduced_handcrafted_text(k, n)
    else:
        _, _, _, generic, handcrafted = built(k, n)
        machine = generic if construction == "generic" else handcrafted
        if form == "reduced":
            machine = machine.reduce()
        text = emit_bimachine(machine)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == EMIT_SHA256[(construction, k, n, form)]
