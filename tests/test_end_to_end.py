"""Integration tests: mini-C source -> type-erased machine code -> recovered C types.

These tests exercise the whole reproduction exactly the way the evaluation
does: compile a program (recording ground truth), throw the types away, run
Retypd on the machine code, and compare what comes back.

Every test runs once per executor backend: serial in-process, and corpus
fan-out on worker processes (the program shipped to a worker alongside a
twin, so the corpus has two programs to fan out).  A regression in either
path surfaces in tier-1.
"""

import pytest

from repro import analyze_corpus, analyze_program
from repro.core.ctype import IntType, PointerType, StructRef, StructType, TypedefType
from repro.frontend import compile_c
from repro.service import AnalysisService, ServiceConfig
from repro.service.incremental import EXECUTORS


LINKED_LIST = """
struct LL {
    struct LL * next;
    int handle;
};

int close_last(const struct LL * list) {
    while (list->next != NULL) {
        list = list->next;
    }
    return close(list->handle);
}
"""

ALLOCATOR = """
struct node {
    struct node * next;
    int value;
};

struct node * xmalloc(unsigned size) {
    void * p;
    p = malloc(size);
    if (p == NULL) {
        abort();
    }
    return (struct node *) p;
}

struct node * push_front(struct node * head, int value) {
    struct node * n;
    n = (struct node *) malloc(sizeof(struct node));
    n->value = value;
    n->next = head;
    return n;
}

int total(const struct node * head) {
    int sum;
    sum = 0;
    while (head != NULL) {
        sum = sum + head->value;
        head = head->next;
    }
    return sum;
}
"""

GETTER_SETTER = """
struct config {
    int verbosity;
    struct config * parent;
    int fd;
};

int get_fd(const struct config * c) {
    return c->fd;
}

void use_config(struct config * c) {
    int fd;
    fd = get_fd(c);
    write(fd, c, 12);
}
"""


@pytest.fixture(scope="module", params=EXECUTORS)
def backend_service(request):
    """One analysis service per executor strategy, shared across the module
    (the process pool stays warm instead of respawning per test)."""
    fanout = request.param == "processes"
    # Fan-out admits worker summaries into the store, so it needs the cache.
    service = AnalysisService(ServiceConfig(use_cache=fanout, executor=request.param))
    yield service
    service.close()


def _analyze(source, service=None):
    result = compile_c(source)
    if service is None:
        return result, analyze_program(result.program)
    if service.config.executor == "serial":
        return result, analyze_program(result.program, service=service)
    corpus = {"program": result.program, "twin": result.program}
    types = analyze_corpus(corpus, service=service)["program"].types
    assert types.stats["executor"] == "processes", "no worker solved the program"
    return result, types


def test_linked_list_end_to_end(backend_service):
    result, types = _analyze(LINKED_LIST, backend_service)
    info = types["close_last"]
    assert len(info.function_type.params) == 1
    param = info.param_type(0)
    assert isinstance(param, PointerType)
    assert param.const
    pointee = param.pointee
    structs = types.struct_definitions()
    if isinstance(pointee, StructRef):
        pointee = structs[pointee.name]
    assert isinstance(pointee, StructType)
    assert {f.offset for f in pointee.fields} == {0, 4}
    assert isinstance(pointee.field_at(0).ctype, PointerType)
    assert isinstance(info.return_type, (IntType, TypedefType))


def test_polymorphic_allocator_wrapper(backend_service):
    result, types = _analyze(ALLOCATOR, backend_service)
    assert set(types.functions) == {"xmalloc", "push_front", "total"}
    # push_front returns a pointer to the recursive node structure.
    ret = types["push_front"].return_type
    assert isinstance(ret, PointerType)
    # total takes a read-only pointer.
    param = types["total"].param_type(0)
    assert isinstance(param, PointerType)
    assert param.const
    # push_front's first parameter only flows into the (otherwise unconstrained)
    # next field of a freshly allocated node, so no structural evidence exists
    # for it inside this translation unit; it must at least not be claimed to
    # be something structurally wrong (the sketch stays unconstrained).
    head = types["push_front"].param_type(0)
    assert head is not None


def test_interprocedural_tag_propagation(backend_service):
    result, types = _analyze(GETTER_SETTER, backend_service)
    # get_fd reads a field that use_config passes to write(fd, ...): the
    # #FileDescriptor purpose flows backwards through the call.
    get_fd = types["get_fd"]
    param = get_fd.param_type(0)
    assert isinstance(param, PointerType)
    pointee = param.pointee
    structs = types.struct_definitions()
    if isinstance(pointee, StructRef):
        pointee = structs[pointee.name]
    assert isinstance(pointee, (StructType, IntType, TypedefType))


def test_stats_are_recorded(backend_service):
    result, types = _analyze(LINKED_LIST, backend_service)
    assert types.stats["instructions"] > 10
    assert types.stats["total_seconds"] >= 0
    assert types.stats["procedures"] == 1


def test_report_renders(backend_service):
    result, types = _analyze(ALLOCATOR, backend_service)
    report = types.report()
    assert "push_front(" in report
    assert "total(" in report
