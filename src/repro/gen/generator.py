"""Seeded generator of well-typed mini-C programs with known ground truth.

``generate_program(seed, profile)`` deterministically manufactures one
translation unit exercising the idioms the paper's corpus is interesting for
-- recursive structs (linked lists and binary trees), multi-level pointers,
handler registration (code pointers of unknown interface), ``const``
parameters, deep call chains, mutual recursion, dead procedures, and
polymorphic allocation helpers re-used at several pointer types -- together
with the ground-truth :class:`~repro.frontend.GroundTruth` answer key for
every defined procedure.

Determinism is a hard contract: the only randomness source is a private
``random.Random(seed)``; no ambient randomness, no ``hash()``, no
iteration over unordered containers.  ``generate_program(seed, profile)`` is
byte-identical across calls, processes, and ``PYTHONHASHSEED`` values
(property-tested in ``tests/gen/``).

The answer key is derived by parsing and type checking the emitted source
through the real frontend (no code generation), so it is the same shape --
and provably the same values -- the evaluation compares against after a full
compile.

It is the repository's only program generator: every evaluation suite in
:mod:`repro.eval.workloads` (Figures 7-12 included) is built from it, so new
program idioms are added here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple

from ..frontend import (
    CompilationResult,
    GroundTruth,
    compile_c,
    extract_ground_truth,
    parse_c,
    typecheck,
)
from .profile import GenProfile

#: bumped whenever the generator's emission changes for an existing
#: ``(seed, profile)`` pair; recorded in corpus manifests so an emitted
#: corpus is reproducible from the manifest alone.
GENERATOR_VERSION = "2"


@dataclass
class GeneratedProgram:
    """One generated translation unit plus its ground-truth answer key."""

    name: str
    seed: int
    profile: GenProfile
    source: str
    #: defined function names, in emission order.
    functions: List[str]
    #: functions deliberately never called from inside the unit.
    dead_functions: List[str]
    #: declared types of every procedure (the evaluation's answer key).
    ground_truth: GroundTruth
    #: (function name, block text) pairs -- the edit surface for
    #: :func:`generate_edit` and the family toggles.
    _blocks: List[Tuple[str, str]] = dc_field(default_factory=list, repr=False)
    _struct_blocks: List[str] = dc_field(default_factory=list, repr=False)
    _global_decls: List[str] = dc_field(default_factory=list, repr=False)
    _compiled: Optional[CompilationResult] = dc_field(default=None, repr=False)

    def compile(self) -> CompilationResult:
        """Compile to type-erased machine code (cached)."""
        if self._compiled is None:
            self._compiled = compile_c(self.source)
        return self._compiled


@dataclass
class GeneratedEdit:
    """An edited variant of a generated program (for incremental oracles)."""

    source: str
    #: the function whose body changed -- the root of the invalidation cone.
    function: str


class _Builder:
    """Accumulates struct and function blocks for one translation unit."""

    def __init__(self, seed: int, profile: GenProfile, prefix: str) -> None:
        self.rng = random.Random(seed)
        self.profile = profile
        self.prefix = prefix
        self.struct_blocks: List[str] = []
        self.global_decls: List[str] = []
        self.blocks: List[Tuple[str, str]] = []
        #: name -> (param spec strings, returns a value)
        self.sigs: Dict[str, Tuple[List[str], bool]] = {}
        self.list_structs: List[str] = []
        self.tree_structs: List[str] = []
        self.plain_structs: List[str] = []
        self.handler_structs: List[str] = []
        #: struct -> int-typed field names
        self.int_fields: Dict[str, List[str]] = {}
        self.dead: List[str] = []
        self._wipe_emitted = False
        self._xmalloc_emitted = False

    # -- registration ------------------------------------------------------------

    def _add(self, name: str, params: List[str], returns: bool, text: str) -> None:
        if name in self.sigs:
            return
        self.blocks.append((name, text))
        self.sigs[name] = (params, returns)

    @property
    def structs(self) -> List[str]:
        return self.list_structs + self.tree_structs + self.plain_structs

    # -- structs -----------------------------------------------------------------

    def add_struct(self, index: int) -> None:
        name = f"{self.prefix}_s{index}"
        rng = self.rng
        fields: List[Tuple[str, str]] = []
        ints: List[str] = []
        recursive = rng.random() < self.profile.recursive_struct_ratio
        tree = recursive and rng.random() < self.profile.tree_struct_ratio
        if tree:
            fields.append(("left", f"struct {name} *"))
            fields.append(("right", f"struct {name} *"))
            self.tree_structs.append(name)
        elif recursive:
            fields.append(("next", f"struct {name} *"))
            self.list_structs.append(name)
        else:
            self.plain_structs.append(name)
        for i in range(rng.randint(2, 3)):
            kind = rng.random()
            if kind < 0.6:
                fields.append((f"value{i}", "int"))
                ints.append(f"value{i}")
            elif kind < 0.8:
                fields.append((f"count{i}", "unsigned"))
                ints.append(f"count{i}")
            elif self.structs and kind < 0.9:
                other = rng.choice(self.structs)
                fields.append((f"ref{i}", f"struct {other} *"))
            else:
                fields.append((f"fd{i}", "int"))
                ints.append(f"fd{i}")
        if not tree and not recursive and rng.random() < self.profile.function_pointer_weight:
            fields.append(("handler", "void *"))
            self.handler_structs.append(name)
        if not ints:
            fields.append(("value0", "int"))
            ints.append("value0")
        body = "\n".join(f"    {ftype} {fname};" for fname, ftype in fields)
        self.struct_blocks.append(f"struct {name} {{\n{body}\n}};")
        self.int_fields[name] = ints

    # -- polymorphic helpers -----------------------------------------------------

    def ensure_xmalloc(self) -> str:
        name = f"{self.prefix}_xmalloc"
        if not self._xmalloc_emitted:
            self._xmalloc_emitted = True
            self._add(
                name,
                ["unsigned"],
                True,
                f"void * {name}(unsigned size) {{\n"
                f"    void * p;\n"
                f"    p = malloc(size);\n"
                f"    if (p == NULL) {{\n"
                f"        abort();\n"
                f"    }}\n"
                f"    return p;\n"
                f"}}",
            )
        return name

    def ensure_wipe(self) -> str:
        name = f"{self.prefix}_wipe"
        if not self._wipe_emitted:
            self._wipe_emitted = True
            self._add(
                name,
                ["void *", "unsigned"],
                False,
                f"void {name}(void * block, unsigned size) {{\n"
                f"    memset(block, 0, size);\n"
                f"}}",
            )
        return name

    # -- per-struct function templates ---------------------------------------------

    def add_constructor(self, struct: str) -> None:
        name = f"new_{struct}"
        if name in self.sigs:
            return
        lines = [
            f"struct {struct} * {name}(int seed) {{",
            f"    struct {struct} * obj;",
        ]
        if self.rng.random() < self.profile.polymorphic_weight:
            allocator = self.ensure_xmalloc()
            lines.append(
                f"    obj = (struct {struct} *) {allocator}(sizeof(struct {struct}));"
            )
            if self.rng.random() < self.profile.polymorphic_weight:
                wipe = self.ensure_wipe()
                lines.append(f"    {wipe}((void *) obj, sizeof(struct {struct}));")
        else:
            lines.append(
                f"    obj = (struct {struct} *) malloc(sizeof(struct {struct}));"
            )
        if struct in self.list_structs:
            lines.append("    obj->next = NULL;")
        if struct in self.tree_structs:
            lines.append("    obj->left = NULL;")
            lines.append("    obj->right = NULL;")
        field = self.rng.choice(self.int_fields[struct])
        lines.append(f"    obj->{field} = seed;")
        lines.append("    return obj;")
        lines.append("}")
        self._add(name, ["int"], True, "\n".join(lines))

    def add_getter(self, struct: str) -> None:
        field = self.rng.choice(self.int_fields[struct])
        name = f"get_{struct}_{field}"
        const = "const " if self.rng.random() < self.profile.const_ratio else ""
        self._add(
            name,
            [f"{const}struct {struct} *"],
            True,
            f"int {name}({const}struct {struct} * obj) {{\n"
            f"    return obj->{field};\n"
            f"}}",
        )

    def add_setter(self, struct: str) -> None:
        field = self.rng.choice(self.int_fields[struct])
        name = f"set_{struct}_{field}"
        self._add(
            name,
            [f"struct {struct} *", "int"],
            False,
            f"void {name}(struct {struct} * obj, int value) {{\n"
            f"    obj->{field} = value;\n"
            f"}}",
        )

    def add_list_walker(self, struct: str) -> None:
        if struct not in self.list_structs:
            return
        name = f"count_{struct}"
        const = "const " if self.rng.random() < self.profile.const_ratio else ""
        self._add(
            name,
            [f"{const}struct {struct} *"],
            True,
            f"int {name}({const}struct {struct} * head) {{\n"
            f"    int n;\n"
            f"    n = 0;\n"
            f"    while (head != NULL) {{\n"
            f"        n = n + 1;\n"
            f"        head = head->next;\n"
            f"    }}\n"
            f"    return n;\n"
            f"}}",
        )

    def add_list_push(self, struct: str) -> None:
        if struct not in self.list_structs:
            return
        name = f"push_{struct}"
        if name in self.sigs:
            return
        self.add_constructor(struct)
        self._add(
            name,
            [f"struct {struct} *", "int"],
            True,
            f"struct {struct} * {name}(struct {struct} * head, int value) {{\n"
            f"    struct {struct} * node;\n"
            f"    node = new_{struct}(value);\n"
            f"    node->next = head;\n"
            f"    return node;\n"
            f"}}",
        )

    def add_list_release(self, struct: str) -> None:
        if struct not in self.list_structs:
            return
        name = f"release_{struct}"
        self._add(
            name,
            [f"struct {struct} *"],
            False,
            f"void {name}(struct {struct} * head) {{\n"
            f"    while (head != NULL) {{\n"
            f"        struct {struct} * rest;\n"
            f"        rest = head->next;\n"
            f"        free(head);\n"
            f"        head = rest;\n"
            f"    }}\n"
            f"}}",
        )

    def add_tree_size(self, struct: str) -> None:
        if struct not in self.tree_structs:
            return
        name = f"size_{struct}"
        const = "const " if self.rng.random() < self.profile.const_ratio else ""
        self._add(
            name,
            [f"{const}struct {struct} *"],
            True,
            f"int {name}({const}struct {struct} * root) {{\n"
            f"    if (root == NULL) {{\n"
            f"        return 0;\n"
            f"    }}\n"
            f"    return 1 + {name}(root->left) + {name}(root->right);\n"
            f"}}",
        )

    def add_tree_insert(self, struct: str) -> None:
        if struct not in self.tree_structs:
            return
        name = f"insert_{struct}"
        if name in self.sigs:
            return
        self.add_constructor(struct)
        field = self.rng.choice(self.int_fields[struct])
        self._add(
            name,
            [f"struct {struct} *", "int"],
            True,
            f"struct {struct} * {name}(struct {struct} * root, int value) {{\n"
            f"    if (root == NULL) {{\n"
            f"        return new_{struct}(value);\n"
            f"    }}\n"
            f"    if (value < root->{field}) {{\n"
            f"        root->left = {name}(root->left, value);\n"
            f"    }} else {{\n"
            f"        root->right = {name}(root->right, value);\n"
            f"    }}\n"
            f"    return root;\n"
            f"}}",
        )

    # -- multi-level pointers ------------------------------------------------------

    def add_pop_front(self, struct: str) -> None:
        if struct not in self.list_structs:
            return
        name = f"pop_{struct}"
        self._add(
            name,
            [f"struct {struct} **"],
            False,
            f"void {name}(struct {struct} ** slot) {{\n"
            f"    if (*slot != NULL) {{\n"
            f"        *slot = (*slot)->next;\n"
            f"    }}\n"
            f"}}",
        )

    def add_cell_helpers(self) -> None:
        read = f"{self.prefix}_cell_read"
        self._add(
            read,
            ["int **"],
            True,
            f"int {read}(int ** cell) {{\n"
            f"    return *(*cell);\n"
            f"}}",
        )
        write = f"{self.prefix}_cell_write"
        self._add(
            write,
            ["int **", "int"],
            False,
            f"void {write}(int ** cell, int value) {{\n"
            f"    *(*cell) = value;\n"
            f"}}",
        )

    # -- handler ("function pointer") idiom ---------------------------------------

    def add_handler_setter(self, struct: str) -> None:
        if struct not in self.handler_structs:
            return
        name = f"hook_{struct}"
        signum = self.rng.randint(1, 15)
        self._add(
            name,
            [f"struct {struct} *", "void *"],
            False,
            f"void {name}(struct {struct} * obj, void * handler) {{\n"
            f"    obj->handler = handler;\n"
            f"    signal({signum}, handler);\n"
            f"}}",
        )

    # -- scalar logic and libc plumbing -------------------------------------------

    def add_logic(self, index: int) -> None:
        name = f"{self.prefix}_decide{index}"
        threshold = self.rng.randint(1, 100)
        self._add(
            name,
            ["int", "int", "int"],
            True,
            f"int {name}(int a, int b, int flags) {{\n"
            f"    int result;\n"
            f"    if (a > b) {{\n"
            f"        result = a - b;\n"
            f"    }} else {{\n"
            f"        result = b - a;\n"
            f"    }}\n"
            f"    if (flags > {threshold}) {{\n"
            f"        result = result * 2;\n"
            f"    }}\n"
            f"    return result;\n"
            f"}}",
        )

    def add_fd_helper(self) -> None:
        name = f"{self.prefix}_read_into"
        self._add(
            name,
            ["const char *", "int *", "unsigned"],
            True,
            f"int {name}(const char * path, int * buffer, unsigned size) {{\n"
            f"    int fd;\n"
            f"    int got;\n"
            f"    fd = open(path, 0);\n"
            f"    if (fd < 0) {{\n"
            f"        return 0 - 1;\n"
            f"    }}\n"
            f"    got = read(fd, buffer, size);\n"
            f"    close(fd);\n"
            f"    return got;\n"
            f"}}",
        )

    # -- union-style overlapping views ---------------------------------------------

    def add_union_views(self, index: int) -> None:
        """Two struct views sharing an ``int tag`` prefix, read through casts.

        The discriminated-union-with-common-header idiom: code receives one
        view, casts to the other, and touches the overlapping offset-0 field.
        At the machine level both views address the same cell, so the
        analysis sees overlapping field accesses through distinct source
        types.
        """
        view_a = f"{self.prefix}_u{index}a"
        view_b = f"{self.prefix}_u{index}b"
        tail = (
            f"struct {self.rng.choice(self.structs)} * ref0;"
            if self.structs and self.rng.random() < 0.5
            else "int alt0;"
        )
        self.struct_blocks.append(
            f"struct {view_a} {{\n    int tag;\n    int payload;\n}};"
        )
        self.struct_blocks.append(f"struct {view_b} {{\n    int tag;\n    {tail}\n}};")
        self.plain_structs.append(view_a)
        self.int_fields[view_a] = ["tag", "payload"]
        self.plain_structs.append(view_b)
        self.int_fields[view_b] = ["tag"] + (["alt0"] if tail == "int alt0;" else [])
        kind = f"{self.prefix}_u{index}_kind"
        self._add(
            kind,
            [f"struct {view_a} *"],
            True,
            f"int {kind}(struct {view_a} * box) {{\n"
            f"    struct {view_b} * view;\n"
            f"    view = (struct {view_b} *) box;\n"
            f"    return box->tag + view->tag;\n"
            f"}}",
        )
        retag = f"{self.prefix}_u{index}_retag"
        self._add(
            retag,
            [f"struct {view_b} *", "int"],
            False,
            f"void {retag}(struct {view_b} * view, int tag) {{\n"
            f"    struct {view_a} * box;\n"
            f"    box = (struct {view_a} *) view;\n"
            f"    box->tag = tag;\n"
            f"    view->tag = box->tag + 1;\n"
            f"}}",
        )

    # -- global variables ----------------------------------------------------------

    def add_global(self, index: int) -> None:
        """One global scalar plus an accessor that reads and writes it."""
        name = f"{self.prefix}_g{index}"
        unsigned = self.rng.random() < 0.3
        ctype = "unsigned" if unsigned else "int"
        self.global_decls.append(f"{ctype} {name};")
        accessor = f"{self.prefix}_bump{index}"
        self._add(
            accessor,
            ["int"],
            True,
            f"{ctype} {accessor}(int delta) {{\n"
            f"    {name} = {name} + delta;\n"
            f"    return {name};\n"
            f"}}",
        )

    # -- varargs-style idiom -------------------------------------------------------

    def add_varargs_pack(self, index: int) -> None:
        """A ``(count, slots)`` argument-pack walker plus a variadic forward.

        ``printf`` is the one modelled variadic extern; the forwarder passes
        more actuals than the extern declares, which is exactly how varargs
        calls look in the type-erased machine code.
        """
        walker = f"{self.prefix}_vsum{index}"
        self._add(
            walker,
            ["int", "int *"],
            True,
            f"int {walker}(int count, int * slots) {{\n"
            f"    int total;\n"
            f"    int i;\n"
            f"    total = 0;\n"
            f"    i = 0;\n"
            f"    while (i < count) {{\n"
            f"        total = total + slots[i];\n"
            f"        i = i + 1;\n"
            f"    }}\n"
            f"    return total;\n"
            f"}}",
        )
        logger = f"{self.prefix}_logv{index}"
        self._add(
            logger,
            ["const char *", "int", "int"],
            True,
            f"int {logger}(const char * fmt, int a, int b) {{\n"
            f"    return printf(fmt, a, b) + {walker}(a, &b);\n"
            f"}}",
        )

    # -- indirect-call dispatch table ----------------------------------------------

    def add_dispatch_table(self, index: int) -> None:
        """A struct of ``void *`` handler slots with init/select/fire helpers.

        ``fire`` registers the selected slot through the modelled ``signal``
        extern, so code pointers of unknown interface flow into and back out
        of a data structure -- the dispatch-table idiom the paper's corpus is
        full of.
        """
        table = f"{self.prefix}_ops{index}"
        self.struct_blocks.append(
            f"struct {table} {{\n"
            f"    void * on_read;\n"
            f"    void * on_write;\n"
            f"    void * on_fail;\n"
            f"    int uses;\n"
            f"}};"
        )
        self.plain_structs.append(table)
        self.int_fields[table] = ["uses"]
        init = f"init_{table}"
        self._add(
            init,
            [f"struct {table} *", "void *", "void *", "void *"],
            False,
            f"void {init}(struct {table} * table, void * rd, void * wr, void * fl) {{\n"
            f"    table->on_read = rd;\n"
            f"    table->on_write = wr;\n"
            f"    table->on_fail = fl;\n"
            f"    table->uses = 0;\n"
            f"}}",
        )
        select = f"select_{table}"
        self._add(
            select,
            [f"struct {table} *", "int"],
            True,
            f"void * {select}(struct {table} * table, int which) {{\n"
            f"    if (which == 0) {{\n"
            f"        return table->on_read;\n"
            f"    }}\n"
            f"    if (which == 1) {{\n"
            f"        return table->on_write;\n"
            f"    }}\n"
            f"    return table->on_fail;\n"
            f"}}",
        )
        fire = f"fire_{table}"
        signum = self.rng.randint(1, 15)
        self._add(
            fire,
            [f"struct {table} *", "int"],
            False,
            f"void {fire}(struct {table} * table, int which) {{\n"
            f"    table->uses = table->uses + 1;\n"
            f"    signal({signum}, {select}(table, which));\n"
            f"}}",
        )
        self.add_constructor(table)

    # -- call-graph shaping --------------------------------------------------------

    def add_call_chain(self) -> List[str]:
        depth = self.profile.call_chain_depth
        if depth <= 0:
            return []
        names = [f"{self.prefix}_chain{i}" for i in range(depth)]
        self._add(
            names[0],
            ["int"],
            True,
            f"int {names[0]}(int x) {{\n"
            f"    return x * 2 + {self.rng.randint(1, 9)};\n"
            f"}}",
        )
        for i in range(1, depth):
            self._add(
                names[i],
                ["int"],
                True,
                f"int {names[i]}(int x) {{\n"
                f"    return {names[i - 1]}(x + {self.rng.randint(1, 4)});\n"
                f"}}",
            )
        return names

    def add_mutual_pair(self, index: int) -> None:
        even = f"{self.prefix}_mr{index}_even"
        odd = f"{self.prefix}_mr{index}_odd"
        self._add(
            even,
            ["int"],
            True,
            f"int {even}(int n) {{\n"
            f"    if (n < 1) {{\n"
            f"        return 1;\n"
            f"    }}\n"
            f"    return {odd}(n - 1);\n"
            f"}}",
        )
        self._add(
            odd,
            ["int"],
            True,
            f"int {odd}(int n) {{\n"
            f"    if (n < 1) {{\n"
            f"        return 0;\n"
            f"    }}\n"
            f"    return {even}(n - 1);\n"
            f"}}",
        )

    def add_dead(self, index: int) -> None:
        name = f"{self.prefix}_dead{index}"
        shift = self.rng.randint(1, 50)
        self._add(
            name,
            ["int", "int"],
            True,
            f"int {name}(int a, int b) {{\n"
            f"    if (a < b) {{\n"
            f"        return a + {shift};\n"
            f"    }}\n"
            f"    return b - {shift};\n"
            f"}}",
        )
        self.dead.append(name)

    # -- drivers -------------------------------------------------------------------

    def _synthesizable(self, param: str) -> bool:
        if param in ("int", "unsigned"):
            return True
        if param in ("int *", "const int *", "int **", "void *", "const char *"):
            return True
        if param.endswith("**"):
            struct = param.split()[-2]
            return f"new_{struct}" in self.sigs
        if param.startswith(("struct", "const struct")):
            struct = param.split()[-2]
            return f"new_{struct}" in self.sigs
        return False

    def add_driver(self, index: int) -> None:
        name = f"{self.prefix}_driver{index}"
        callable_names = [
            fname
            for fname, (params, _) in self.sigs.items()
            if fname not in self.dead and all(self._synthesizable(p) for p in params)
        ]
        if not callable_names:
            return
        count = min(len(callable_names), self.rng.randint(3, 6))
        chosen = self.rng.sample(callable_names, count)
        locals_decl: List[str] = []
        locals_init: List[str] = []
        declared: Dict[str, bool] = {}
        calls: List[str] = []

        def need_cell() -> None:
            if "cell" not in declared:
                declared["cell"] = True
                locals_decl.append("    int cell;")
                locals_decl.append("    int * cellp;")
                locals_init.append("    cell = 0;")
                locals_init.append("    cellp = &cell;")

        def need_struct(struct: str) -> str:
            var = f"tmp_{struct}"
            if var not in declared:
                declared[var] = True
                locals_decl.append(f"    struct {struct} * {var};")
                locals_init.append(f"    {var} = new_{struct}({self.rng.randint(0, 9)});")
            return var

        for callee in chosen:
            params, returns = self.sigs[callee]
            args: List[str] = []
            for param in params:
                if param in ("int", "unsigned"):
                    args.append(str(self.rng.randint(0, 64)))
                elif param in ("int *", "const int *"):
                    need_cell()
                    args.append("cellp")
                elif param == "int **":
                    need_cell()
                    args.append("&cellp")
                elif param in ("void *", "const char *"):
                    args.append("NULL")
                elif param.endswith("**"):
                    struct = param.split()[-2]
                    var = need_struct(struct)
                    args.append(f"&{var}")
                else:
                    struct = param.split()[-2]
                    args.append(need_struct(struct))
            call = f"{callee}({', '.join(args)})"
            if returns:
                calls.append(f"    acc = acc + {call};")
            else:
                calls.append(f"    {call};")
        body = (
            [f"int {name}(int seed) {{", "    int acc;"]
            + locals_decl
            + ["    acc = seed;"]
            + locals_init
            + calls
            + ["    return acc;", "}"]
        )
        self._add(name, ["int"], True, "\n".join(body))

    # -- assembly ------------------------------------------------------------------

    def build(self) -> Tuple[List[str], List[Tuple[str, str]], List[str]]:
        profile = self.profile
        rng = self.rng
        for i in range(max(1, profile.n_structs)):
            self.add_struct(i)

        per_struct = [
            self.add_getter,
            self.add_setter,
            self.add_constructor,
            self.add_list_walker,
            self.add_list_push,
            self.add_list_release,
            self.add_tree_size,
            self.add_tree_insert,
            self.add_handler_setter,
        ]
        # Guaranteed feature floors, then weighted fill to the target count.
        if profile.multi_level_pointer_weight > 0 and rng.random() < profile.multi_level_pointer_weight:
            self.add_cell_helpers()
        for struct in self.list_structs:
            if rng.random() < profile.multi_level_pointer_weight:
                self.add_pop_front(struct)
        for struct in self.handler_structs:
            self.add_handler_setter(struct)
        self.add_fd_helper()
        if rng.random() < profile.union_weight:
            self.add_union_views(0)
        for i in range(max(0, profile.n_globals)):
            self.add_global(i)
        if rng.random() < profile.varargs_weight:
            self.add_varargs_pack(0)
        if rng.random() < profile.dispatch_weight:
            self.add_dispatch_table(0)

        attempts = 0
        while len(self.sigs) < profile.n_functions and attempts < profile.n_functions * 12:
            attempts += 1
            action = rng.random()
            if action < 0.7 and self.structs:
                rng.choice(per_struct)(rng.choice(self.structs))
            else:
                self.add_logic(len(self.sigs))

        self.add_call_chain()
        for i in range(profile.mutual_recursion_pairs):
            self.add_mutual_pair(i)
        for i in range(max(0, profile.drivers)):
            self.add_driver(i)
        for i in range(max(0, profile.dead_functions)):
            self.add_dead(i)
        return self.struct_blocks, self.blocks, self.dead


def _render(
    struct_blocks: List[str],
    blocks: List[Tuple[str, str]],
    global_decls: Optional[List[str]] = None,
) -> str:
    globals_part = ["\n".join(global_decls)] if global_decls else []
    return (
        "\n\n".join(struct_blocks + globals_part + [text for _, text in blocks]) + "\n"
    )


_C_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def generate_program(
    seed: int, profile: Optional[GenProfile] = None, name: Optional[str] = None
) -> GeneratedProgram:
    """Deterministically generate one well-typed program with its answer key.

    ``name`` prefixes every generated struct and helper, so with ``-`` mapped
    to ``_`` it must be a C identifier; anything else raises ``ValueError``.
    """
    profile = profile or GenProfile.default()
    name = name or f"gen{seed}"
    prefix = name.replace("-", "_")
    if not _C_IDENTIFIER.fullmatch(prefix):
        raise ValueError(f"program name {name!r} is not a C identifier (with '-' read as '_')")
    builder = _Builder(seed, profile, prefix)
    struct_blocks, blocks, dead = builder.build()
    source = _render(struct_blocks, blocks, builder.global_decls)
    checked = typecheck(parse_c(source))
    truth = extract_ground_truth(checked)
    return GeneratedProgram(
        name=name,
        seed=seed,
        profile=profile,
        source=source,
        functions=[fname for fname, _ in blocks],
        dead_functions=list(dead),
        ground_truth=truth,
        _blocks=blocks,
        _struct_blocks=struct_blocks,
        _global_decls=list(builder.global_decls),
    )


def generate_corpus(
    count: int,
    seed: int,
    profile: Optional[GenProfile] = None,
    name_prefix: str = "gen",
) -> List[GeneratedProgram]:
    """``count`` independent programs; member seeds are pure arithmetic on
    ``seed`` so any member regenerates without the rest."""
    return [
        generate_program(
            seed * 1_000_003 + index, profile, name=f"{name_prefix}{seed}_{index}"
        )
        for index in range(count)
    ]


#: the statement block spliced in by :func:`generate_edit` -- harmless (fresh
#: local, constant store) but fingerprint-changing.
EDIT_STATEMENT = "    { int gen_edit_tmp; gen_edit_tmp = 0; }"


def generate_edit(program: GeneratedProgram, edit_seed: int = 0) -> GeneratedEdit:
    """A deterministic edited variant: one function body gains a no-op block.

    The chosen function's machine code (and therefore its content fingerprint)
    changes while every other block stays byte-identical -- exactly the shape
    of edit :class:`~repro.service.incremental.IncrementalSession` re-solves
    incrementally.
    """
    if not program._blocks:
        raise ValueError("program has no functions to edit")
    rng = random.Random(edit_seed)
    index = rng.randrange(len(program._blocks))
    fname, text = program._blocks[index]
    brace = text.index("{")
    newline = text.index("\n", brace)
    edited_text = text[: newline + 1] + EDIT_STATEMENT + "\n" + text[newline + 1 :]
    blocks = list(program._blocks)
    blocks[index] = (fname, edited_text)
    return GeneratedEdit(
        source=_render(program._struct_blocks, blocks, program._global_decls),
        function=fname,
    )
