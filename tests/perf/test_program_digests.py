"""Every registered workload variant keeps its program digest.

``golden_program_digests.json`` maps ``workload/variant/input/scale/seed``
to :func:`~repro.perf.cache.program_digest` of that build, for every
variant of every registered workload at its first input, scales 0.0625
and 2.0 and data seeds 1 and 2.  The digests were recorded while a
program's data image was still a ``{byte_addr: word}`` dict.  Every
result-cache key, trace-store key and perfbench pin starts from this
digest, so a change to how programs or their data images are built,
stored or hashed must leave every entry unchanged.
"""

import json
import os

from repro.perf.cache import program_digest
from repro.workloads import get_workload, workload_names

_GOLDEN = os.path.join(os.path.dirname(__file__),
                       "golden_program_digests.json")
_SCALES = (0.0625, 2.0)
_SEEDS = (1, 2)


def test_every_workload_variant_keeps_its_program_digest():
    with open(_GOLDEN) as fh:
        golden = json.load(fh)
    got = {}
    for name in workload_names():
        workload = get_workload(name)
        input_name = workload.inputs[0]
        for variant in workload.variants:
            for scale in _SCALES:
                for seed in _SEEDS:
                    built = workload.build(variant, input_name, scale, seed)
                    key = "%s/%s/%s/%g/%d" % (
                        name, variant, input_name, scale, seed)
                    got[key] = program_digest(built.program)
    assert sorted(got) == sorted(golden)
    assert {key: digest for key, digest in got.items()
            if digest != golden[key]} == {}
