"""Pinned QASM output of the ESOP and TBS methods on the bundled benchmarks.

The ESOP minimizer's result depends on the order cubes are inserted, so any
change to cube order or count shows up here as a different QASM digest.
TBS is pinned in both directions: its gate list depends on the row order and
on which side of the table each row is fixed from, so any change to the
table updates or to the cost comparison shows up here too.
"""
from __future__ import annotations

import hashlib

import pytest

from qoracle import emit, tbs
from qoracle.cli import run_synthesis
from qoracle.errors import GateLimitExceeded, TooWide

UNI, BI = tbs.UNIDIRECTIONAL, tbs.BIDIRECTIONAL

#: (benchmark, method, direction, status, sha256 of emit.to_qasm) with default
#: options otherwise; the ESOP methods ignore the direction.
GOLDEN = [
    ("Z5xp1", "esop", UNI, "ok", "f33a8331c52274baf6e48e9e08c8785d6bf0ce46b946f6dfc0c234efa6f9638e"),
    ("Z5xp1", "esop-rtt", UNI, "ok", "9650d43417106aad7fb0ec58405288e4cd399ad215fc7b2d0ae9c2e0d2adb166"),
    ("Z9sym", "esop", UNI, "ok", "fbfd425b35e39f28ebf5e985c363aa0a60198c2be3ff29d565b73bd0df792d43"),
    ("Z9sym", "esop-rtt", UNI, "ok", "3b1df0f1280a2af2f8ef72daea695c3293380958c0381edb7cf3b729f972aaf3"),
    ("addm4", "esop", UNI, "ok", "56990c5b3bd7ae44d5f1f346e5c61d5554bcd9092df041be39901e786cd40f20"),
    ("addm4", "esop-rtt", UNI, "ok", "d60bee52ebbce315a1434381e0ab83d41ed755f268cf44022713b96b25dc3cb5"),
    ("apex4", "esop", UNI, "ok", "b81802fbb99cd15b748d8669cb01008e656d5d4871d8e3f3adc3479f252d5a5f"),
    ("apex4", "esop-rtt", UNI, "too_large", None),
    ("b11", "esop", UNI, "ok", "c337f57d8706f655997423ad2553955981a2655c24c22cb657f1db7189b747a2"),
    ("b11", "esop-rtt", UNI, "too_large", None),
    ("clip", "esop", UNI, "ok", "a19a86666edaab48a67a5687a1a1ef83401bf6526fe527457db104160866f211"),
    ("clip", "esop-rtt", UNI, "ok", "d34935ec3db611b97a4d2e0b43cb7068f9e25bf404c9a11c8bca684246f66ff5"),
    ("dist", "esop", UNI, "ok", "79a7c28238ac5ef5c24760d3b33d9de04820e37ac01d2053f98efc9b6645b618"),
    ("dist", "esop-rtt", UNI, "ok", "60f59b7643b487c53afa9608a7a3d1f529f0775f7d99fb2c95bdc0c0cc42c826"),
    ("ex5", "esop", UNI, "ok", "044936f0f88a44231ef0c2a88bf8d093f7f895835a820b8672d941e5499e1bb9"),
    ("ex5", "esop-rtt", UNI, "too_large", None),
    ("f51m", "esop", UNI, "ok", "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead"),
    ("f51m", "esop-rtt", UNI, "ok", "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead"),
    ("inc", "esop", UNI, "ok", "58232060f9adc37ab241b0e205fca1612fe0fa105ce893bae717bcbb96b64611"),
    ("inc", "esop-rtt", UNI, "ok", "e07b26ebcab5821ef89746aa998d0d3b9ed06bd77c6976b03eb6e2b2cb6be913"),
    ("mlp4", "esop", UNI, "ok", "528f65682a27e062a6d6a3ead758e009fa6db3ca4e500e02c311e58fa441348c"),
    ("mlp4", "esop-rtt", UNI, "ok", "54910fd8d97f30d3cb6e99168a56c20668dbc88c4c4260477a0b3c3e520025f5"),
    ("squar5", "esop", UNI, "ok", "085ee34efb52d7f04ae75eba08bafe41fbc9e92e9ede8d30ae4976d77ce2625d"),
    ("squar5", "esop-rtt", UNI, "ok", "e02658ab86d3c2fc19516866706fea825aca24604866855f0d66e2d1ba184553"),
    ("Z5xp1", "tbs", UNI, "ok", "76933bedb8a1ee282125fb25a05fc6a4219d19cfec92342db039583617010427"),
    ("Z9sym", "tbs", UNI, "ok", "dd5b65828283b515f25de8578b83853316e51c7740a44e2cc4ca974db6fd7ef9"),
    ("addm4", "tbs", UNI, "ok", "cd9dee354cd85c95d244cb52cd3328029d01e11c347e83132e489ffe524a6205"),
    ("apex4", "tbs", UNI, "too_large", None),
    ("b11", "tbs", UNI, "too_large", None),
    ("clip", "tbs", UNI, "ok", "92f879808e980122c651a96ca1aa8c46ecc544777c3831682dfda4a623f458dd"),
    ("dist", "tbs", UNI, "ok", "90a2609d6875aabbfb6dc4960433f7db3c0b733545d8ed3036cd4354fc5eb8e1"),
    ("ex5", "tbs", UNI, "too_large", None),
    ("f51m", "tbs", UNI, "ok", "bc2b0b96d837a7ce104c67994a356e25ff112c80fe499df28bbb933efff80071"),
    ("inc", "tbs", UNI, "too_large", None),
    ("mlp4", "tbs", UNI, "too_large", None),
    ("squar5", "tbs", UNI, "ok", "598488cf7b482505c4b7eff94cac1c899e3c329bf1ffcfcde7a87da3c9476f30"),
    ("Z5xp1", "tbs", BI, "ok", "f4514207062bad5eaa8c8ac42328f5f0d2e9daad934fe132efcdd25c0d5db778"),
    ("Z9sym", "tbs", BI, "ok", "302a81d335065b4a96bc782d8cdb24daecfb8ccd64b0af9b8cc232c10218b3dc"),
    ("addm4", "tbs", BI, "ok", "bbf9f4120b90558098d52bf95197fa7629adc8590a15dea56cc554e672cae8eb"),
    ("apex4", "tbs", BI, "too_large", None),
    ("b11", "tbs", BI, "too_large", None),
    ("clip", "tbs", BI, "ok", "55750950086c42b18eb21287334c5803f8a256e068a02c8f83cb820cd184911a"),
    ("dist", "tbs", BI, "ok", "e28a6e9cf60a237bcf723cbc0d6594919de19fa87b0d4beb7d77ac91e3a407f9"),
    ("ex5", "tbs", BI, "too_large", None),
    ("f51m", "tbs", BI, "ok", "bc2b0b96d837a7ce104c67994a356e25ff112c80fe499df28bbb933efff80071"),
    ("inc", "tbs", BI, "too_large", None),
    ("mlp4", "tbs", BI, "ok", "14c61208452e0dcbab6120e5472e3c5ac2f5a9e4cd127ba7005323c6361560a7"),
    ("squar5", "tbs", BI, "ok", "38bc5ac28a481056e669704f058b5992900d46070da8c41f8d6dd85d81970b32"),
]


def _golden_id(row):
    name, method, direction = row[:3]
    return f"{name}-{method}-{direction}" if method == "tbs" else f"{name}-{method}"


@pytest.mark.parametrize("name,method,direction,status,digest", GOLDEN,
                         ids=[_golden_id(g) for g in GOLDEN])
def test_esop_qasm_is_pinned(bench_tables, name, method, direction, status, digest):
    try:
        result = run_synthesis(bench_tables[name], method, source=name,
                               direction=direction)
    except (TooWide, GateLimitExceeded):
        assert status == "too_large"
        return
    assert status == "ok"
    qasm = emit.to_qasm(result.circuit)
    assert hashlib.sha256(qasm.encode()).hexdigest() == digest
