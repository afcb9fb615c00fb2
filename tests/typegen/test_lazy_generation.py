"""Lazy constraint generation: store-served procedures are known by formals alone."""

import collections

from hypothesis import given, settings, strategies as st

import repro.ir.locators as locators
import repro.typegen.abstract_interp as abstract_interp
from repro import analyze_program
from repro.gen import GenProfile, generate_program
from repro.ir import discover_interface, parse_program
from repro.ir.dataflow import body_key
from repro.service import AnalysisService
from repro.typegen import CalleeInfo, generate_program_constraints

#: register and stack parameters mixed, a gap in the stack arguments, and a
#: procedure without a return value.
MIXED_ASM = """
mixed:
    mov eax, [esp+8]
    add eax, ecx
    mov edx, esi
    ret

sink:
    mov edx, [esp+4]
    mov [edx], ecx
    ret

caller:
    push 1
    push 2
    mov ecx, [esp+12]
    mov esi, [esp+16]
    call mixed
    call sink
    add esp, 8
    ret
"""


def _compiled(seed):
    return generate_program(seed, GenProfile.smoke()).compile().program


def _assert_stored_formals_give_discovered_interfaces(program):
    service = AnalysisService()
    types = service.analyze(program)
    for members, key in types.stats["scc_store_keys"].items():
        summary = service.store.get(key, service.lattice)
        for name in members.split("|"):
            stored = summary.procedures[name]
            derived = CalleeInfo.from_formals(name, stored)
            discovered = CalleeInfo.from_interface(
                discover_interface(program.procedures[name])
            )
            assert derived == discovered, name


def test_callee_info_from_formals_handles_registers_gaps_and_void():
    program = parse_program(MIXED_ASM)
    mixed = CalleeInfo.from_interface(discover_interface(program.procedures["mixed"]))
    assert (mixed.stack_params, mixed.register_params) == (1, ("ecx", "esi"))
    sink = CalleeInfo.from_interface(discover_interface(program.procedures["sink"]))
    assert not sink.has_return
    _assert_stored_formals_give_discovered_interfaces(program)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_callee_info_from_stored_formals_matches_discover_interface(seed):
    _assert_stored_formals_give_discovered_interfaces(_compiled(seed))


def test_known_procedures_are_skipped_and_the_rest_unchanged():
    program = _compiled(4)
    full = generate_program_constraints(program)
    callees = {c.callee for proc in full.values() for c in proc.callsites}
    known = {name: full[name] for name in full if name in callees}
    assert known, "the generated program should have internal callees"
    lazy = generate_program_constraints(program, known=known)
    assert list(lazy) == [name for name in program.procedures if name not in known]
    for name, proc in lazy.items():
        assert proc.constraints == full[name].constraints
        assert proc.formal_ins == full[name].formal_ins
        assert proc.formal_outs == full[name].formal_outs
        assert proc.callsites == full[name].callsites


def test_cold_analysis_walks_each_distinct_body_once(monkeypatch):
    # Parsed text shares one instruction object per distinct line, so equal
    # machine code is one body.
    program = parse_program(str(_compiled(11)))
    calls = collections.Counter()
    real = abstract_interp.analyze_body

    def counting(procedure, *args):
        calls[body_key(procedure)] += 1
        return real(procedure, *args)

    monkeypatch.setattr(abstract_interp, "analyze_body", counting)
    monkeypatch.setattr(locators, "analyze_body", counting)
    analyze_program(program)
    assert calls == {body_key(procedure): 1 for procedure in program}
