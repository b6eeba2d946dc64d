"""Pinned QASM output of the ESOP methods on the bundled benchmarks.

The ESOP minimizer's result depends on the order cubes are inserted, so any
change to cube order or count shows up here as a different QASM digest.
"""
from __future__ import annotations

import hashlib

import pytest

from qoracle import emit
from qoracle.cli import run_synthesis
from qoracle.errors import GateLimitExceeded, TooWide

#: (benchmark, method, status, sha256 of emit.to_qasm) with default options.
GOLDEN = [
    ("Z5xp1", "esop", "ok", "f33a8331c52274baf6e48e9e08c8785d6bf0ce46b946f6dfc0c234efa6f9638e"),
    ("Z5xp1", "esop-rtt", "ok", "9650d43417106aad7fb0ec58405288e4cd399ad215fc7b2d0ae9c2e0d2adb166"),
    ("Z9sym", "esop", "ok", "fbfd425b35e39f28ebf5e985c363aa0a60198c2be3ff29d565b73bd0df792d43"),
    ("Z9sym", "esop-rtt", "ok", "3b1df0f1280a2af2f8ef72daea695c3293380958c0381edb7cf3b729f972aaf3"),
    ("addm4", "esop", "ok", "56990c5b3bd7ae44d5f1f346e5c61d5554bcd9092df041be39901e786cd40f20"),
    ("addm4", "esop-rtt", "ok", "d60bee52ebbce315a1434381e0ab83d41ed755f268cf44022713b96b25dc3cb5"),
    ("apex4", "esop", "ok", "b81802fbb99cd15b748d8669cb01008e656d5d4871d8e3f3adc3479f252d5a5f"),
    ("apex4", "esop-rtt", "too_large", None),
    ("b11", "esop", "ok", "c337f57d8706f655997423ad2553955981a2655c24c22cb657f1db7189b747a2"),
    ("b11", "esop-rtt", "too_large", None),
    ("clip", "esop", "ok", "a19a86666edaab48a67a5687a1a1ef83401bf6526fe527457db104160866f211"),
    ("clip", "esop-rtt", "ok", "d34935ec3db611b97a4d2e0b43cb7068f9e25bf404c9a11c8bca684246f66ff5"),
    ("dist", "esop", "ok", "79a7c28238ac5ef5c24760d3b33d9de04820e37ac01d2053f98efc9b6645b618"),
    ("dist", "esop-rtt", "ok", "60f59b7643b487c53afa9608a7a3d1f529f0775f7d99fb2c95bdc0c0cc42c826"),
    ("ex5", "esop", "ok", "044936f0f88a44231ef0c2a88bf8d093f7f895835a820b8672d941e5499e1bb9"),
    ("ex5", "esop-rtt", "too_large", None),
    ("f51m", "esop", "ok", "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead"),
    ("f51m", "esop-rtt", "ok", "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead"),
    ("inc", "esop", "ok", "58232060f9adc37ab241b0e205fca1612fe0fa105ce893bae717bcbb96b64611"),
    ("inc", "esop-rtt", "ok", "e07b26ebcab5821ef89746aa998d0d3b9ed06bd77c6976b03eb6e2b2cb6be913"),
    ("mlp4", "esop", "ok", "528f65682a27e062a6d6a3ead758e009fa6db3ca4e500e02c311e58fa441348c"),
    ("mlp4", "esop-rtt", "ok", "54910fd8d97f30d3cb6e99168a56c20668dbc88c4c4260477a0b3c3e520025f5"),
    ("squar5", "esop", "ok", "085ee34efb52d7f04ae75eba08bafe41fbc9e92e9ede8d30ae4976d77ce2625d"),
    ("squar5", "esop-rtt", "ok", "e02658ab86d3c2fc19516866706fea825aca24604866855f0d66e2d1ba184553"),
]


@pytest.mark.parametrize("name,method,status,digest", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_esop_qasm_is_pinned(bench_tables, name, method, status, digest):
    try:
        result = run_synthesis(bench_tables[name], method, source=name)
    except (TooWide, GateLimitExceeded):
        assert status == "too_large"
        return
    assert status == "ok"
    qasm = emit.to_qasm(result.circuit)
    assert hashlib.sha256(qasm.encode()).hexdigest() == digest
