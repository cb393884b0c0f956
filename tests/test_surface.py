"""Every function, class and method the package defines is reached.

A top-level function or class of ``src/cuntzlab``, or a method of such a
class, must be referred to outside its own definition by code that runs
for a user or for the paper's checks: another live definition or the
top-level code of a package module, the benchmark (``bench/*.py``), or the
acceptance battery (``tests/test_acceptance.py``).  The unit tests do
not count: a name that only they reach is library surface kept for its
tests, which belongs in ``tests/``.  The package root re-exports
nothing, so it reaches nothing.  Reach is transitive: a name that only
unreached definitions refer to is unreached too.

References are read from the syntax tree, not from the text:

- a method is reached by an attribute access ``.name``, or by a string
  that is wholly a dotted name, which is how the benchmark's span table
  names methods (``"SystemSpec.mul_vectors"``);
- a function or class is reached by such a string, by a name that is read,
  by an import, or by an attribute access on a name bound to its own module
  (``algebra.multiply``, or ``run_ops.sweep`` after
  ``from . import runs as run_ops``); an attribute access on anything else
  reaches only methods, so ``a.adjoint()`` does not reach a module function
  ``adjoint``;
- prose reaches nothing: comments, docstrings and strings that are not a
  dotted name, such as error messages;
- a local reaches nothing: a name that a function binds itself, as an
  argument, an assignment or a loop or comprehension target, is local
  there and in the functions nested in it, unless the function declares
  it ``global``, so a local ``trace`` does not reach a function ``trace``.

Dunder methods are called by the language: they are not checked, and
their references count as part of their class.

A second check leaves the benchmark out: the definitions that only it
reaches must be exactly ``BENCH_ONLY``, the ones ROADMAP item 2 moves into
``bench/``.  So a new definition that only the benchmark or the unit tests
reach fails it, and so does one of the list that a package path starts to
reach.
"""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "cuntzlab"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (*FUNCTIONS, ast.Lambda)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules(tree):
    """Names bound to a package module anywhere in ``tree``, mapped to the
    module: ``from . import runs as run_ops`` binds ``run_ops`` to ``runs``,
    and ``from cuntzlab import algebra`` binds ``algebra``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            (node.level and node.module is None) or node.module == "cuntzlab"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound


def _body(scope):
    return scope.body if isinstance(scope.body, list) else [scope.body]


def _locals(scope, outer):
    """The names local to the body of the function ``scope``: those local
    around it, ``outer``, and those it binds itself, an argument, an
    assignment or a loop or comprehension target, or a nested definition,
    less the names it declares ``global``."""
    args = scope.args
    bound = {
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
        if a is not None
    }
    declared = set()
    todo = list(_body(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*SCOPES, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return (outer | bound) - declared


def _references(nodes, modules):
    """``(named, attributes, qualified)`` referred to anywhere under
    ``nodes``.

    ``named`` holds names that are read, but not as a local, or imported;
    ``attributes`` holds attribute names; both hold the parts of strings
    that are wholly a dotted name.  ``qualified`` holds a (module,
    attribute) pair for each attribute access on a name that ``modules``
    binds to a package module, where no local shadows it.
    """
    named, attributes, qualified = set(), set(), set()
    # each node with the names local where it is read; a function's
    # decorators, defaults and annotations are read around it
    todo = [(node, frozenset()) for node in nodes]
    while todo:
        sub, local = todo.pop()
        if isinstance(sub, SCOPES):
            inner, body = _locals(sub, local), _body(sub)
            todo += [
                (child, inner if child in body else local)
                for child in ast.iter_child_nodes(sub)
            ]
            continue
        todo += [(child, local) for child in ast.iter_child_nodes(sub)]
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            if sub.id not in local:
                named.add(sub.id)
        elif isinstance(sub, ast.alias):
            named.update(sub.name.split("."))
        elif isinstance(sub, ast.Attribute):
            attributes.add(sub.attr)
            value = sub.value
            if isinstance(value, ast.Name) and value.id in modules and value.id not in local:
                qualified.add((modules[value.id], sub.attr))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                parts = sub.value.split(".")
                named.update(parts)
                attributes.update(parts)
    return named, attributes, qualified


def _definitions(text, module):
    """The module split into definitions and the rest.

    Returns ``(definitions, rest)``: a (qualified name, bare name, is
    method, references) quadruple for each top-level def, class and
    method, where a class's references leave out those of its checked
    methods, and the references of the module outside every definition.
    """
    out = []
    rest = []
    tree = ast.parse(text)
    modules = _modules(tree)
    for node in tree.body:
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            rest.append(node)
            continue
        if isinstance(node, FUNCTIONS):
            out.append(
                (f"{module}.{node.name}", node.name, False, _references([node], modules))
            )
            continue
        # dunder methods run whenever their class does
        own = [*node.decorator_list, *node.bases, *node.keywords]
        for item in node.body:
            if isinstance(item, FUNCTIONS) and not _dunder(item.name):
                qualified = f"{module}.{node.name}.{item.name}"
                out.append((qualified, item.name, True, _references([item], modules)))
            else:
                own.append(item)
        out.append((f"{module}.{node.name}", node.name, False, _references(own, modules)))
    return out, _references(rest, modules)


def _unreached(definitions, sources):
    """Qualified names that no reached code refers to outside their own
    definition.

    ``sources`` are ``_references`` triples that always count; a
    definition's references count while it is reached.  Names drop out
    until none does, so the answer is transitive.
    """
    dead = set()
    while True:
        live = [d for d in definitions if d[0] not in dead]
        newly = set()
        for qualified, name, method, _ in live:
            module = qualified.split(".", 1)[0]
            refs = list(sources) + [r for q, _, _, r in live if q != qualified]
            if method:
                reached = any(name in attributes for _, attributes, _ in refs)
            else:
                reached = any(
                    name in named or (module, name) in pairs for named, _, pairs in refs
                )
            if not reached:
                newly.add(qualified)
        if not newly:
            return sorted(dead)
        dead |= newly


def _package():
    definitions, rest = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        found, top = _definitions(path.read_text(encoding="utf-8"), path.stem)
        definitions += found
        rest.append(top)
    return definitions, rest


def _code(text):
    tree = ast.parse(text)
    return _references([tree], _modules(tree))


def test_unreached_names_are_found():
    package = (
        "def used():\n    helper()\n\ndef helper():\n    pass\n\n"
        "def orphan():\n    helper_of_orphan()\n\ndef helper_of_orphan():\n    pass\n\n"
        "class Box:\n    def __init__(self):\n        packed()\n\n    def lid(self):\n        pass\n\n"
        "def packed():\n    pass\n"
    )
    definitions, rest = _definitions(package, "m")
    assert rest == (set(), set(), set())
    assert _unreached(definitions, [rest, _code("used(); Box().lid()")]) == [
        "m.helper_of_orphan",
        "m.orphan",
    ]
    # a method is reached by its own name, not by its class's
    assert _unreached(definitions, [rest, _code("used(); Box()")]) == [
        "m.Box.lid",
        "m.helper_of_orphan",
        "m.orphan",
    ]
    # a dunder method's references count only while its class is reached
    assert "m.packed" in _unreached(definitions, [rest, _code("used()")])


def test_attributes_reach_functions_only_through_their_module():
    package = (
        "class Element:\n    def adjoint(self):\n        return self\n\n"
        "def adjoint(a):\n    return a.adjoint()\n\n"
        "def multiply(a, b):\n    pass\n\n"
        "def sweep(pieces):\n    pass\n"
    )
    definitions, rest = _definitions(package, "m")
    # an element's .adjoint() reaches the method, not the module function
    caller = "def run(a):\n    Element().adjoint()\n    a.multiply(a)\n"
    assert _unreached(definitions, [rest, _code(caller + "run(1)")]) == [
        "m.adjoint",
        "m.multiply",
        "m.sweep",
    ]
    # a name bound to the module reaches it, under its own name or an alias
    caller = (
        "from cuntzlab import m\nfrom . import m as ops\n"
        "m.multiply(1, 2)\nops.sweep([])\n"
    )
    assert _unreached(definitions, [rest, _code(caller)]) == [
        "m.Element",
        "m.Element.adjoint",
        "m.adjoint",
    ]
    # and a module of another name does not
    assert "m.sweep" in _unreached(definitions, [rest, _code("from . import n\nn.sweep([])\n")])


def test_recursion_does_not_reach():
    package = "def loop(n):\n    return loop(n - 1)\n"
    definitions, rest = _definitions(package, "m")
    assert _unreached(definitions, [rest]) == ["m.loop"]


def test_prose_does_not_reach():
    package = (
        '"""The module uses ``described``."""\n\n'
        "def used():\n"
        '    """Calls nothing, but names described and commented."""\n'
        "    # commented() would be reached by this comment\n"
        '    return "quoted"\n\n'
        "def described():\n    pass\n\n"
        "def commented():\n    pass\n\n"
        "def quoted():\n    pass\n"
    )
    definitions, rest = _definitions(package, "m")
    # a string that is wholly a name still names a definition
    assert _unreached(definitions, [rest, _code("used()")]) == ["m.commented", "m.described"]


def test_messages_and_local_variables_do_not_reach_methods():
    package = (
        "class Spec:\n"
        "    def inner(self):\n        pass\n\n"
        "    def block(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n\n"
        "    def called(self):\n        pass\n\n"
        "def emit(spec):\n"
        "    block = spec.called()\n"
        "    raise ValueError(f'inner product of {block} is undefined')\n\n"
        "SPANS = ['Spec.traced']\n"
    )
    definitions, rest = _definitions(package, "m")
    # a local named ``block`` and a message containing "inner" reach
    # neither method; the attribute access and the span string do
    assert _unreached(definitions, [rest, _code("emit(None)")]) == [
        "m.Spec.block",
        "m.Spec.inner",
    ]
    # a name that is only stored to does not reach a function either
    definitions, rest = _definitions("def f():\n    pass\n\nf = 1\n", "m")
    assert _unreached(definitions, [rest]) == ["m.f"]


def test_locals_do_not_reach():
    package = (
        "def trace(z):\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "def sweep():\n    pass\n\n"
        "def block():\n    pass\n\n"
        "def default():\n    pass\n\n"
        "def counter():\n    pass\n\n"
        "def used(helper, fill=default):\n"
        "    trace = [sweep for sweep in helper]\n"
        "    for block in trace:\n"
        "        helper(block)\n"
        "    def inner():\n"
        "        return trace, sweep\n"
        "    return inner, lambda trace: trace\n\n"
        "def bump():\n"
        "    global counter\n"
        "    counter = counter\n"
    )
    definitions, rest = _definitions(package, "m")
    # an argument, an assignment, a loop or comprehension target is local
    # in its function and in the functions nested in it; a default is read
    # around the function, and a name declared global is the module's
    assert _unreached(definitions, [rest, _code("used(1); bump()")]) == [
        "m.block",
        "m.helper",
        "m.sweep",
        "m.trace",
    ]
    # the same names read at the top level reach
    caller = "used(1)\ntrace(block, helper, sweep)\n"
    assert _unreached(definitions, [rest, _code(caller)]) == ["m.bump", "m.counter"]
    # an argument that shadows a module's name reaches none of its
    # functions, while an attribute read on a local still reaches methods
    package = (
        "from . import n\n\nclass Box:\n    def lid(self):\n        pass\n\n"
        "def used(n, lid):\n    return n.size, lid.lid()\n"
    )
    definitions, rest = _definitions(package, "m")
    assert _unreached(definitions, [rest, _code("used(1, 2)")]) == ["m.Box"]
    n = _definitions("def size():\n    pass\n", "n")[0]
    assert _unreached(definitions + n, [rest, _code("used(1, 2)")]) == ["m.Box", "n.size"]


def test_dotted_strings_reach_from_any_scope():
    package = (
        "class Spec:\n    def mul_vectors(self):\n        pass\n\n"
        "def spanned():\n    pass\n\n"
        "def table(spanned):\n"
        "    Spec = 'Spec.mul_vectors'\n"
        "    return [spanned, Spec, 'spanned']\n"
    )
    definitions, rest = _definitions(package, "m")
    # a string that is wholly a dotted name reaches each of its parts, in a
    # function whose locals share those names too
    assert _unreached(definitions, [rest, _code("table(1)")]) == []
    # and only while the function that holds it is reached
    assert _unreached(definitions, [rest]) == [
        "m.Spec",
        "m.Spec.mul_vectors",
        "m.spanned",
        "m.table",
    ]


def test_every_definition_is_reached():
    definitions, rest = _package()
    assert definitions
    callers = sorted((ROOT / "bench").glob("*.py")) + [TESTS / "test_acceptance.py"]
    sources = rest + [_code(p.read_text(encoding="utf-8")) for p in callers]
    assert _unreached(definitions, sources) == []


# reached only by the benchmark until ROADMAP item 2 moves them into bench/
BENCH_ONLY = [
    "algebra.AlgebraElement.from_terms",
    "algebra.AlgebraElement.terms",
    "algebra.Term",
    "core.CoreElement.matrix",
    "core.core_equal",
    "core.multiply_core",
    "core.trace",
    "linalg.sparse_matmul",
    "scalars.Cyclotomic.inv",
    "steprep.vector_operator",
    "system.SystemSpec.mul_vectors",
]


def test_only_the_listed_definitions_need_the_benchmark():
    definitions, rest = _package()
    acceptance = _code((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    assert _unreached(definitions, rest + [acceptance]) == BENCH_ONLY
