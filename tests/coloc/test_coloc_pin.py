"""Bitwise pin of colocated-server results.

Hashes every :class:`~repro.coloc.server.ColocResult` field for a small
(app, mix, scheme) matrix, so any change to the shared colocation loop,
the chip allocator, the batch/interference models or the per-core
schemes that moves a single float shows up here — long before it would
move the rounded Fig. 15/16 report strings.

The digests were recorded before the table-driven HW-T/HW-TPW allocator
replaced the per-step greedy. To regenerate after an intended change::

    PYTHONPATH=src python tests/coloc/test_coloc_pin.py
"""

import hashlib

import pytest

from repro.coloc.batch import generate_mixes
from repro.coloc.server import COLOC_SCHEME_NAMES, run_colocated_server
from repro.experiments.common import make_context
from repro.workloads.apps import APPS

PIN_APPS = ("masstree", "xapian")
PIN_MIXES = generate_mixes(2, seed=0)
PIN_LOAD = 0.6
PIN_SEED = 5
PIN_REQUESTS_PER_CORE = 60

EXPECTED = {
    "masstree/0/RubikColoc": "defac32a4d9ecfce75a43965a9e3c418aeb2d76fb4480c0fb82df197a60b0c90",
    "masstree/0/StaticColoc": "93c8f59ec51ee12c4d0e5b5716ab527e84c8bf00524e803f9aee42f2675d0154",
    "masstree/0/HW-T": "6b37f7071db00da1179d7cb35aa2f248b0f72cae674b640631cdbf386e3e0776",
    "masstree/0/HW-TPW": "465066a49f0cd030d0de092bb5b4eb5f1f1a936cad73af45caa6351b23fc3643",
    "masstree/1/RubikColoc": "8f41a112e42387eedca9f3f0c008531df786f2d8f5154eb401a0083c45ea2b2a",
    "masstree/1/StaticColoc": "6ab0b6e605ce0707ecad094e91e60979bf2dec4995434a7c828f7bf2165700a9",
    "masstree/1/HW-T": "446c7b37a108406b34a36c0da7b92789ca18bd4573e182c26ec16b7466013532",
    "masstree/1/HW-TPW": "cd7004e7ca12dffdf11464339c119d28fe1f157d5ec5fe354960f479b8e3e0e9",
    "xapian/0/RubikColoc": "84a0c662c33d92fbc9d8ea7b0e91991debc85124b15ed2c1f4f1945e13b61aa2",
    "xapian/0/StaticColoc": "0b161bcfcbbfa53805a7f7a3cf86a0210e561a9c18e1f434a579d64829972b30",
    "xapian/0/HW-T": "a26eece67850adb0cd78260ac65938558687bdef686db45a5c1bc77967a8f738",
    "xapian/0/HW-TPW": "5c7d512cd68c756ce922b25938424979c098d9d18fa50f10a7be79cd3a883774",
    "xapian/1/RubikColoc": "b27458bb4b01fbfbd84dc0d669ac525106e6f6d1343b441098eb0d49c734e50f",
    "xapian/1/StaticColoc": "6b1bd9ae52b14a8bd9c30da0e5a5db2daae624abe2931f2a428120f1051b8b84",
    "xapian/1/HW-T": "df330167a5cf7bd9d43d3b7a14b5166a05aa45a8e386a3925c0069c1db228ab5",
    "xapian/1/HW-TPW": "b22eac1ed0692eb7f243dd8c61f6bab821373736ebfc205f60b0e8561e6b2f9b",
}


def result_digest(result) -> str:
    """SHA-256 over every ColocResult field, floats bit-exact."""
    h = hashlib.sha256()
    h.update(result.scheme.encode())
    h.update(result.lc_response_times.dtype.str.encode())
    h.update(result.lc_response_times.tobytes())
    for value in (result.duration_s, result.core_energy_j,
                  result.lc_busy_time_s, result.batch_time_s,
                  result.interference_penalty_cycles):
        h.update(float(value).hex().encode())
    h.update(str(result.num_cores).encode())
    for name, instr in sorted(result.batch_instructions.items()):
        h.update(name.encode())
        h.update(float(instr).hex().encode())
    return h.hexdigest()


def pin_cases():
    return [(app, mi, scheme) for app in PIN_APPS
            for mi in range(len(PIN_MIXES))
            for scheme in COLOC_SCHEME_NAMES]


def run_case(app_name: str, mix_index: int, scheme: str):
    app = APPS[app_name]
    context = make_context(app, PIN_SEED, PIN_REQUESTS_PER_CORE * 2)
    return run_colocated_server(
        app, PIN_LOAD, PIN_MIXES[mix_index], scheme, context,
        seed=PIN_SEED, requests_per_core=PIN_REQUESTS_PER_CORE)


@pytest.mark.parametrize("app_name,mix_index,scheme", pin_cases())
def test_coloc_result_pinned(app_name, mix_index, scheme):
    result = run_case(app_name, mix_index, scheme)
    assert result_digest(result) == EXPECTED[
        f"{app_name}/{mix_index}/{scheme}"]


if __name__ == "__main__":
    for case in pin_cases():
        print(f'    "{case[0]}/{case[1]}/{case[2]}": '
              f'"{result_digest(run_case(*case))}",')
