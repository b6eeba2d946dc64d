"""Pinned QASM and JSON netlist output of the ESOP and TBS methods on the
bundled benchmarks.

The ESOP minimizer's result depends on the order cubes are inserted, so any
change to cube order or count shows up here as a different QASM digest.
The esop-rtt rows also pin the bulk minterm pairing that runs before the
insertion cascade: its bit order and the rank order of the cubes it hands
on.  Plain esop columns hold dashed cubes and skip that step.
TBS is pinned in both directions, as methods tbs and tbs-bidirectional: its
gate list depends on the row order and on which side of the table each row
is fixed from, so any change to the table updates or to the cost comparison
shows up here too.  The JSON
netlist digest pins the serializer as well, so a change to how gates are
written out shows up even when the gate list is the same.
"""
from __future__ import annotations

import hashlib

import pytest

from qoracle import emit
from qoracle.cli import run_synthesis
from qoracle.errors import GateLimitExceeded, TooWide

#: (benchmark, method, status, sha256 of emit.to_qasm, sha256 of
#: emit.to_json) with default options otherwise.
GOLDEN = [
    ("Z5xp1", "esop", "ok",
     "f33a8331c52274baf6e48e9e08c8785d6bf0ce46b946f6dfc0c234efa6f9638e",
     "2f2ba4fdf3eed06b0bd0c1a5c4c612a515b49c68dc68ce18e0ff19aec017b217"),
    ("Z5xp1", "esop-rtt", "ok",
     "4e220a247d87ab79f3421f56baedb0569815afe63d1f67b5915069fb5fa00007",
     "612e16b216f2bfdb71dcf3820c2718ee7f53dfe89fa8708a8c9b8295cd2a51a5"),
    ("Z9sym", "esop", "ok",
     "fbfd425b35e39f28ebf5e985c363aa0a60198c2be3ff29d565b73bd0df792d43",
     "ec02086107302e0b560c71eb6eb1fdade883b5492538b96c2d498e5be653c5c4"),
    ("Z9sym", "esop-rtt", "ok",
     "ce56bb2af67a379abc225db49c49c3d3db002b23fd68cdcce0b41b8a402c2670",
     "2d8ebb058247b2998a83fa8f7db601067830783dcd0143d70571c36a38421baf"),
    ("addm4", "esop", "ok",
     "56990c5b3bd7ae44d5f1f346e5c61d5554bcd9092df041be39901e786cd40f20",
     "806ee7ee8d740219ca5b7367d20b4820954fd9271f4010cc28055680ae216db2"),
    ("addm4", "esop-rtt", "ok",
     "1ee2e6e5f6ca674caf460ec9b7e1296e9723863345e104dbe17a3e4dbd806755",
     "a7a2907c0c9d4f3e2d544ef1dacca9b8da11c9838dc4c7fc41400ca646c60812"),
    ("apex4", "esop", "ok",
     "b81802fbb99cd15b748d8669cb01008e656d5d4871d8e3f3adc3479f252d5a5f",
     "2441669d308ffa523c5d567ed59ff51ade5ea74f1310462582ba3b5ec6bbfd29"),
    ("apex4", "esop-rtt", "too_large", None, None),
    ("b11", "esop", "ok",
     "c337f57d8706f655997423ad2553955981a2655c24c22cb657f1db7189b747a2",
     "f421120a51aa60c979b4d2e9986e9e1e1a326b90958d1830773b52c3a106716c"),
    ("b11", "esop-rtt", "too_large", None, None),
    ("clip", "esop", "ok",
     "a19a86666edaab48a67a5687a1a1ef83401bf6526fe527457db104160866f211",
     "4e5969ec5edb2a394bfa5d84d3fa1908661a9d24ae9f87f80b37630e6c8b2805"),
    ("clip", "esop-rtt", "ok",
     "0531f6fd5ed793e75f91957fe8949ac0c8fce905659b79ebdae05c8ab480a546",
     "0a42fa519ad5d91ca1024bad6c09a5bfd043bb05c9b272161d6f4d89e506268d"),
    ("dist", "esop", "ok",
     "79a7c28238ac5ef5c24760d3b33d9de04820e37ac01d2053f98efc9b6645b618",
     "02b4a61cefa0a7251067fdd8ceaf0608c59ecccb336c06661d6212281468db35"),
    ("dist", "esop-rtt", "ok",
     "dd3b2abbd3598b6e627a780d38e509ac38bc05e096e8a0e6f3d478b1417907e4",
     "08d9b90ed30816ce773dcf50d0b0f8ebd7319ad1c68868989798c903e5302cc9"),
    ("ex5", "esop", "ok",
     "044936f0f88a44231ef0c2a88bf8d093f7f895835a820b8672d941e5499e1bb9",
     "c2689e73c3c561db4d91f6a6bb15a56105d30ff741331454d07e45d7d2902dc0"),
    ("ex5", "esop-rtt", "too_large", None, None),
    ("f51m", "esop", "ok",
     "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead",
     "2705a5d42c817bacd6b7400d59432d97bb8213654261b9963b8612eecbab64e7"),
    ("f51m", "esop-rtt", "ok",
     "a45a4132489b98676fe340daea84ab2abe06ca6117d4d09faf5600ec26832ead",
     "bc657ea251a474dab2b21fcab0727356c3ee204f3346c8d96a42a56c8045ba23"),
    ("inc", "esop", "ok",
     "58232060f9adc37ab241b0e205fca1612fe0fa105ce893bae717bcbb96b64611",
     "2dbfac9a08d80e464ef156e4b04dfb0ae15eb12b4cee62b1490dd163b7433e2d"),
    ("inc", "esop-rtt", "ok",
     "30a72ddf05fa85d17f8786f05518773f01258ac11dd2b0bcb797f295d9faaaa6",
     "4e7b0dc8abe45f0a1082f56a2099a4dc4bcb252e2ae1b8211eee6ab161ba0d98"),
    ("mlp4", "esop", "ok",
     "528f65682a27e062a6d6a3ead758e009fa6db3ca4e500e02c311e58fa441348c",
     "d2663855a3fecdbc4ab195839646c93a719fc3706a8df01b6c535929aaf4598d"),
    ("mlp4", "esop-rtt", "ok",
     "4af1a151332b91b27840d57abe7a1c380e41a2acde345d13acccb3807ee3c4d3",
     "f37eb90e7f79c724ad87cad91faf9e7205f51b20bfbc00c7d760cff31381f902"),
    ("squar5", "esop", "ok",
     "085ee34efb52d7f04ae75eba08bafe41fbc9e92e9ede8d30ae4976d77ce2625d",
     "90ab57a2e6e62da7f25d2cffd540951caf1103d10b90f55c0f52829e2f4b9421"),
    ("squar5", "esop-rtt", "ok",
     "c896046d1e5da81db030c6e7bdcbddea9f58a5899f9e696a82bd8ff44867a535",
     "6dee8bb7d2e7546ba3eb32db6069edb2183d04931e51bcdeaf5f423fd3d5d06e"),
    ("Z5xp1", "tbs", "ok",
     "76933bedb8a1ee282125fb25a05fc6a4219d19cfec92342db039583617010427",
     "c62b25a3635e8c8dbe8ec1553c7f97fce6056e40a9334480bc0877a05943d4d2"),
    ("Z9sym", "tbs", "ok",
     "dd5b65828283b515f25de8578b83853316e51c7740a44e2cc4ca974db6fd7ef9",
     "01e16729c2277a7f3f00ae94539edc23e175d33f6fb349eb67c7a8139dc014ca"),
    ("addm4", "tbs", "ok",
     "cd9dee354cd85c95d244cb52cd3328029d01e11c347e83132e489ffe524a6205",
     "4d18ace595415cc0d3a8bc3debf9e57344c40b3ca79d033281a9c973a4753d01"),
    ("apex4", "tbs", "too_large", None, None),
    ("b11", "tbs", "too_large", None, None),
    ("clip", "tbs", "ok",
     "92f879808e980122c651a96ca1aa8c46ecc544777c3831682dfda4a623f458dd",
     "ffe31a83ea9f0783aeae0aa0483066302d648e3a69928307ea1301e462b2a2f4"),
    ("dist", "tbs", "ok",
     "90a2609d6875aabbfb6dc4960433f7db3c0b733545d8ed3036cd4354fc5eb8e1",
     "05df17eb0bde8b18b06ab0815c2723f52f0abf044cf1714a560e68d5e11a68ea"),
    ("ex5", "tbs", "too_large", None, None),
    ("f51m", "tbs", "ok",
     "bc2b0b96d837a7ce104c67994a356e25ff112c80fe499df28bbb933efff80071",
     "6ef8423dee1081ce8b6d1c4b44ca5095f1f72ca0493e8b3b92f4a4d551b64119"),
    ("inc", "tbs", "too_large", None, None),
    ("mlp4", "tbs", "too_large", None, None),
    ("squar5", "tbs", "ok",
     "598488cf7b482505c4b7eff94cac1c899e3c329bf1ffcfcde7a87da3c9476f30",
     "8d2b4810b1a9447d9ed3deabba7ee2225e3fcafb2a0b253fb6352e60dca2bea8"),
    ("Z5xp1", "tbs-bidirectional", "ok",
     "f4514207062bad5eaa8c8ac42328f5f0d2e9daad934fe132efcdd25c0d5db778",
     "e2a5ef2d89328803d8ebfe410b504d75e92663e2b2e27beb79f9efb4d5f83b5b"),
    ("Z9sym", "tbs-bidirectional", "ok",
     "302a81d335065b4a96bc782d8cdb24daecfb8ccd64b0af9b8cc232c10218b3dc",
     "11478a739aa3de6395376e958fea88754bfc5044965202223c20e174dbc9ca68"),
    ("addm4", "tbs-bidirectional", "ok",
     "bbf9f4120b90558098d52bf95197fa7629adc8590a15dea56cc554e672cae8eb",
     "480f96bf465ab386cbfdfb88a6e4d172c96eb77c7e654484c7a52b8e669ec1f9"),
    ("apex4", "tbs-bidirectional", "too_large", None, None),
    ("b11", "tbs-bidirectional", "too_large", None, None),
    ("clip", "tbs-bidirectional", "ok",
     "55750950086c42b18eb21287334c5803f8a256e068a02c8f83cb820cd184911a",
     "16ac66da073b16a8fa2e0a8ed537fb1175751adb8a438371992a5997ad40d5f7"),
    ("dist", "tbs-bidirectional", "ok",
     "e28a6e9cf60a237bcf723cbc0d6594919de19fa87b0d4beb7d77ac91e3a407f9",
     "5f16e5fc3a6f9de0d7a95d9061670dd1fc72c39e8fc4e8b9669333e5511425c8"),
    ("ex5", "tbs-bidirectional", "too_large", None, None),
    ("f51m", "tbs-bidirectional", "ok",
     "bc2b0b96d837a7ce104c67994a356e25ff112c80fe499df28bbb933efff80071",
     "bf588abc27e1be10ca9e05149c934d2781b1ab588eac9d2874fa3eab95ea5879"),
    ("inc", "tbs-bidirectional", "too_large", None, None),
    ("mlp4", "tbs-bidirectional", "ok",
     "14c61208452e0dcbab6120e5472e3c5ac2f5a9e4cd127ba7005323c6361560a7",
     "cd4578cbe8942e92226b588f1445694402210135da6a7f4b7495550cd9254c2a"),
    ("squar5", "tbs-bidirectional", "ok",
     "38bc5ac28a481056e669704f058b5992900d46070da8c41f8d6dd85d81970b32",
     "f6ff93644e371088defe23c48bdd4d51f57abee4dda6d3d19aacf185c481672c"),
]


def _golden_id(row):
    # Unidirectional TBS rows read "-tbs-unidirectional", beside "-tbs-bidirectional".
    name, method = row[:2]
    return f"{name}-{method}" + "-unidirectional" * (method == "tbs")


@pytest.mark.parametrize("name,method,status,digest,netlist_digest",
                         GOLDEN, ids=[_golden_id(g) for g in GOLDEN])
def test_esop_qasm_is_pinned(bench_tables, name, method, status, digest, netlist_digest):
    try:
        result = run_synthesis(bench_tables[name], method, source=name)
    except (TooWide, GateLimitExceeded):
        assert status == "too_large"
        return
    assert status == "ok"
    qasm = emit.to_qasm(result.circuit)
    assert hashlib.sha256(qasm.encode()).hexdigest() == digest
    netlist = emit.to_json(result.circuit)
    assert hashlib.sha256(netlist.encode()).hexdigest() == netlist_digest
