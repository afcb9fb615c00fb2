"""Pin the analysis answers on a fixed generated set.

One sha256 over the ``result_fingerprint`` of every program below, in
order.  A change that renumbers ``τN``/``struct_N``, reorders a scheme's
constraints, moves a bound or alters any other observable of
:meth:`ProgramTypes.to_json <repro.pipeline.ProgramTypes.to_json>` changes
the digest; a change meant to keep outputs byte-identical must leave it
alone.  The digest is the same on Python 3.9, 3.11 and 3.12 and under any
``PYTHONHASHSEED``.
"""

import hashlib

from repro import analyze_program
from repro.gen import GenProfile, generate_program
from repro.gen.oracle import result_fingerprint

#: (profile, seed) of every pinned program: smoke and default programs, and
#: three ``GenProfile.stress()`` ones (44-46 procedures each).
GOLDEN_SET = (
    [("smoke", seed) for seed in range(12)]
    + [("default", seed) for seed in range(6)]
    + [("stress", seed) for seed in range(3)]
)

GOLDEN_DIGEST = "6b6d5ff73159b84f2abba18eba432168b188f335a88c434b9079fc5f78985d81"


def test_fingerprints_of_the_golden_set_are_pinned():
    digest = hashlib.sha256()
    for profile, seed in GOLDEN_SET:
        program = generate_program(seed, getattr(GenProfile, profile)()).compile().program
        digest.update(result_fingerprint(analyze_program(program)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
