"""Hand-written seed regression in the auto-minimizer's emitted format.

This file exists so the ``tests/regress`` runner is always exercised: it is
exactly what ``repro.gen.minimize.emit_regression_test`` writes (a minimized
mini-C program plus one predicate assertion), derived once from generator
seed 20160673481839 (the first program of the ``--count 1 --seed 20160613
--profile smoke`` sweep) with an artificial conservativeness failure
injected via ``REPRO_ORACLE_INJECT`` and then minimized to 10% of the
original source.  With no defect live, the predicate passes.

Reproduce the derivation:
    REPRO_ORACLE_INJECT='gen20160613_0_chain0(int' \\
        python -m repro gen --oracle --count 1 --seed 20160613 \\
        --profile smoke --backends serial --minimize
"""

MINIMIZED_SOURCE = """\
struct gen20160613_0_s0 {
    struct gen20160613_0_s0 * next;
    unsigned count0;
    int value1;
};

struct gen20160613_0_s1 {
    int value0;
    int value1;
};

unsigned gen20160613_0_g0;

int gen20160613_0_chain0(int x) {
    return x * 2 + 9;
}
"""


def test_seed_regression_conservativeness():
    from repro.gen.minimize import check_predicate

    failure = check_predicate(
        "conservativeness", "gen20160613_0", MINIMIZED_SOURCE
    )
    assert failure is None, failure


def test_seed_regression_backend_processes():
    from repro.gen.minimize import check_predicate

    failure = check_predicate(
        "backend:processes", "gen20160613_0", MINIMIZED_SOURCE
    )
    assert failure is None, failure


def test_seed_regression_cache_warm():
    from repro.gen.minimize import check_predicate

    failure = check_predicate("cache:warm", "gen20160613_0", MINIMIZED_SOURCE)
    assert failure is None, failure
