"""Source hygiene checks that need no linter: an AST scan of the package."""

import ast
import dataclasses
import importlib
import pathlib

import wickns
from wickns.config import SCHEMA
from wickns.manifest import RunManifest
from test_config_cli import CHECK_FALSIFIERS

PACKAGE = pathlib.Path(wickns.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; names listed in __all__ count
    as read, so re-exports pass."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_scan_flags_only_unread_names():
    src = "import os\nimport numpy as np\nfrom a import b, c as d\n__all__ = ['b']\nnp.zeros(os.sep)\n"
    assert unused_imports(src) == ["d (line 3)"]


def test_package_has_no_unused_imports():
    found = {
        path.name: bad
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (bad := unused_imports(path.read_text()))
    }
    assert found == {}


def test_every_exported_name_resolves():
    # the benchmark tracer wraps whatever __all__ lists, so a stale entry must fail here
    stems = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    modules = [wickns] + [importlib.import_module(f"wickns.{stem}") for stem in stems]
    missing = [f"{mod.__name__}.{name}" for mod in modules for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def string_constants_outside(source: str, skip: str) -> set[str]:
    """String constants of a module, except those inside the value assigned to `skip`."""
    tree = ast.parse(source)
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == skip for t in targets) and node.value is not None:
                skipped.update(id(n) for n in ast.walk(node.value))
    strings = (n for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return {n.value for n in strings if id(n) not in skipped}


def test_every_schema_key_is_read():
    assert string_constants_outside('S: dict = {"a": "b"}\nx = "c"\n', "S") == {"c"}
    read = set()
    for name in ("config.py", "cli.py"):
        read |= string_constants_outside((PACKAGE / name).read_text(), "SCHEMA")
    unread = [f"[{section}] {key}" for section, keys in SCHEMA.items() for key in keys if key not in read]
    assert unread == []


def unmanaged_opens(source: str) -> list[int]:
    """Lines that call open() (the builtin or an .open method) other than as
    the context manager of a with statement, whose file nothing closes."""
    tree = ast.parse(source)
    managed = {id(item.context_expr) for node in ast.walk(tree) if isinstance(node, ast.With) for item in node.items}
    calls = (node for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in managed)
    return sorted(
        node.lineno
        for node in calls
        if (isinstance(node.func, ast.Name) and node.func.id == "open")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
    )


def test_unmanaged_open_scan_flags_only_bare_calls():
    src = "with open(p) as fh, q.open('rb') as g:\n    pass\nx = open(p).read()\nopen(p, 'w').write(s)\ny = p.open()\n"
    assert unmanaged_opens(src) == [3, 4, 5]


def test_package_and_tests_open_files_only_in_with():
    tests = pathlib.Path(__file__).parent
    found = {
        f"{path.parent.name}/{path.name}": bad
        for path in sorted(PACKAGE.glob("*.py")) + sorted(tests.glob("*.py"))
        if (bad := unmanaged_opens(path.read_text()))
    }
    assert found == {}


def test_csv_codec_lives_only_in_fields():
    # one writer and one reader: every *_to_csv writes through _csv_chunks
    # (or _csv_text, its pieces joined) and every *_from_csv reads through
    # _csv_rows, all defined in fields alone
    defined, checked, bypass = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{path.stem}.{node.name}"
            if node.name in ("_csv_chunks", "_csv_text", "_csv_rows"):
                defined.append(name)
            if node.name.endswith("_to_csv"):
                helpers = {"_csv_text", "_csv_chunks"}
            elif node.name.endswith("_from_csv"):
                helpers = {"_csv_rows"}
            else:
                continue
            checked.append(name)
            calls = {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
            if not helpers & calls:
                bypass.append(name)
    assert sorted(defined) == ["fields._csv_chunks", "fields._csv_rows", "fields._csv_text"]
    assert bypass == []
    assert sorted(checked) == ["fields.field_from_csv", "noise.operator_from_csv", "noise.operator_to_csv", "noise.trajectory_to_csv"]


def test_json_is_written_only_in_manifest():
    # report.json, sweep_summary.json and manifest.json share one strict writer
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for attr in ast.walk(node):
                    if isinstance(attr, ast.Attribute) and attr.attr in ("dump", "dumps") and getattr(attr.value, "id", None) == "json":
                        callers.add(f"{path.stem}.{node.name}")
    assert callers == {"manifest._json_text"}


def test_manifest_repeats_no_run_key_but_command():
    # the embedded resolved config holds every [run] key; command is kept
    # beside it because a sweep's manifest records sweep:<command>
    assert {f.name for f in dataclasses.fields(RunManifest)} & set(SCHEMA["run"]) == {"command"}


def test_gaussian_draw_lives_only_in_noise():
    # every standard_normal call, every bit-generator copy and every use of
    # the unscaled complex draw is in noise, so the complex Gaussian draw,
    # its variance-1 scaling and its stream layout live in one place
    where = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("standard_normal", "bit_generator"):
                where.add(f"{path.stem}.{node.attr}")
            if getattr(node, "id", None) == "_complex_normal" or (isinstance(node, ast.alias) and node.name == "_complex_normal"):
                where.add(f"{path.stem}._complex_normal")
    assert sorted(where) == ["noise._complex_normal", "noise.bit_generator", "noise.standard_normal"]


def test_standard_normal_is_called_in_one_noise_function():
    # one fill routine writes every Gaussian value the package draws, so
    # the complex draw, the row blocks and the discarded skip share one loop
    callers = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
                if child.func.attr == "standard_normal":
                    callers.add(func)
            visit(child, func)

    visit(ast.parse((PACKAGE / "noise.py").read_text()), None)
    assert callers == {"_fill_normal"}


def test_one_thread_pool():
    # ensemble chunks and sweep cells share lab._pool_map; no module opens a pool of its own
    where = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> outermost function around it (ast.walk visits outer ones first)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), f"{path.stem}.{fn.name}")
        for node in ast.walk(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
            if name == "ThreadPoolExecutor":
                where.append(owner.get(id(node), f"{path.stem} (module level)"))
    assert where == ["lab._pool_map"]


GRID_HELPERS = ("alias_free_length", "_five_smooth")


def hard_coded_grid_lengths(source: str) -> list[int]:
    """Lines where a grid length is hard-coded: the length argument of a
    to_grid call or a gridpoints= keyword that is not built from a call to
    alias_free_length or _five_smooth, a parameter passed on, or a local name
    assigned only from those.  Each top-level function or method is one flat
    scope with the functions nested in it."""
    tree = ast.parse(source)
    top = tree.body + [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    bad = []
    for fn in top:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for f in ast.walk(fn) if isinstance(f, ast.FunctionDef) for a in f.args.args + f.args.kwonlyargs}
        assigned: dict[str, list] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigned.setdefault(t.id, []).append(node.value)

        def ok(expr, seen=()) -> bool:
            if isinstance(expr, ast.Call):
                return isinstance(expr.func, ast.Name) and expr.func.id in GRID_HELPERS
            if isinstance(expr, ast.IfExp):
                return ok(expr.body, seen) and ok(expr.orelse, seen)
            if isinstance(expr, ast.Name) and expr.id not in seen:
                if expr.id in assigned:
                    return all(ok(v, seen + (expr.id,)) for v in assigned[expr.id])
                return expr.id in params
            return False

        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            lengths = [k.value for k in node.keywords if k.arg == "gridpoints"]
            if isinstance(node.func, ast.Name) and node.func.id == "to_grid" and len(node.args) > 1:
                lengths.append(node.args[1])
            bad += [node.lineno for expr in lengths if not ok(expr)]
    return sorted(set(bad))


def test_grid_length_scan_flags_only_hard_coded_lengths():
    src = (
        "def f(U, N, gridpoints=None):\n"
        "    L = alias_free_length(N) if gridpoints is None else gridpoints\n"
        "    a = to_grid(U, L)\n"
        "    b = to_grid(U, _five_smooth(4 * N + 1))\n"
        "    c = to_grid(U, 128)\n"
        "    M = 4 * N + 8\n"
        "    d = wick_coeffs_block(U, N, gridpoints=M)\n"
        "    def g(V):\n"
        "        return wick_coeffs_block(V, N, gridpoints=L)\n"
        "    return to_grid(U, 2 * L)\n"
        "class K:\n"
        "    def m(self, U):\n"
        "        return to_grid(U, 64)\n"
    )
    assert hard_coded_grid_lengths(src) == [5, 7, 10, 13]


def test_fft_lengths_live_only_in_fields():
    # the two length rules are defined once, beside to_grid, and every grid
    # length elsewhere in the package is one of theirs
    defined, hard_coded = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        defined += [f"{path.stem}.{n.name}" for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name in GRID_HELPERS]
        if path.name != "fields.py" and (bad := hard_coded_grid_lengths(source)):
            hard_coded[path.name] = bad
    assert sorted(defined) == ["fields._five_smooth", "fields.alias_free_length"]
    assert hard_coded == {}


def philox_callers(source: str) -> list[str]:
    """Qualified names of the functions or methods that call philox_stream;
    "<module>" for a call outside any function."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name == "philox_stream":
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sorted(found)


def test_philox_caller_scan_names_enclosing_scopes():
    src = (
        "class W:\n"
        "    def stream(self, *key):\n"
        "        return philox_stream(self.seed, *key)\n"
        "def f(cfg):\n"
        "    def g():\n"
        "        return noise.philox_stream(cfg.seed, 1)\n"
        "    return g()\n"
        "rng = philox_stream(0)\n"
    )
    assert philox_callers(src) == ["<module>", "W.stream", "f.g"]


def test_streams_are_opened_only_by_the_run_writer():
    # the CLI writer opens every stream of a run and records its key in the
    # manifest's task_seeds, so no key can be drawn without being recorded
    callers = {name: philox_callers((PACKAGE / name).read_text()) for name in ("cli.py", "config.py", "dynamics.py", "norms.py")}
    assert callers["cli.py"] == ["_Writer.stream"] and callers["config.py"] == [] and callers["norms.py"] == []
    assert [c for c in callers["dynamics.py"] if c.split(".")[0] == "solve"] == []  # solve takes its rng


def emitted_check_names(source: str) -> list[str]:
    """The name heading each (name, ok) pair in a `checks=` keyword, an
    assignment to `checks` or a `checks.append` call."""
    holders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "checks":
            holders.append(node.value)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "checks" for t in node.targets):
            holders.append(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "append" and getattr(node.func.value, "id", None) == "checks":
            holders += node.args
    pairs = (n for h in holders for n in ast.walk(h) if isinstance(n, ast.Tuple) and len(n.elts) == 2)
    return sorted(p.elts[0].value for p in pairs if isinstance(p.elts[0], ast.Constant) and isinstance(p.elts[0].value, str))


def test_check_name_scan_reads_every_way_a_check_is_emitted():
    src = (
        "def f(ok):\n"
        "    checks = [('a', ok)]\n"
        "    checks.append(('b', not ok))\n"
        "    for flow, x in (('wick', 1), ('cubic', 2)):\n"
        "        pass\n"
        "    return R({}, checks=checks), R({}, checks=[('c', ok)])\n"
    )
    assert emitted_check_names(src) == ["a", "b", "c"]


def test_every_cli_check_has_a_falsifying_case():
    # a check that reads true for every config reports nothing; test_config_cli
    # runs each name's case and sees the check read false
    assert emitted_check_names((PACKAGE / "cli.py").read_text()) == sorted(CHECK_FALSIFIERS)


# the library layers: every module but cli, which the package import leaves out
LAYERS = [p.stem for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ("__init__", "cli")]


def named_imports(source: str) -> list[str]:
    """Names a module binds one by one with `from ... import name`; a star
    import binds none by name."""
    tree = ast.parse(source)
    return sorted(
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name != "*"
    )


def test_named_import_scan_skips_only_star_imports():
    src = "from .fields import *\nfrom .noise import make_grid, Trajectory as T\nfrom . import cli\nimport os\n"
    assert named_imports(src) == ["T", "cli", "make_grid"]


def test_package_declares_no_name_of_its_own():
    # each public name is declared once, in its layer's __all__; __init__ only re-exports
    assert named_imports((PACKAGE / "__init__.py").read_text()) == []


def imports_before_blas_default(source: str) -> list[int]:
    """Lines of the import statements, other than `import os`, that run
    before the module's `environ.setdefault("OPENBLAS_NUM_THREADS", ...)`;
    all of them when there is no such call."""
    tree = ast.parse(source)
    first = min(
        (
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "setdefault"
            and node.args
            and getattr(node.args[0], "value", None) == "OPENBLAS_NUM_THREADS"
        ),
        default=float("inf"),
    )
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and node.lineno < first
        and not (isinstance(node, ast.Import) and [a.name for a in node.names] == ["os"])
    )


def test_blas_default_scan_flags_only_imports_that_run_first():
    src = 'import os as _os\nfrom .fields import *\n_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\nfrom .noise import *\n'
    assert imports_before_blas_default(src) == [2]
    assert imports_before_blas_default("import os\nfrom .fields import *\nimport numpy\n") == [2, 3]


def test_blas_default_is_set_before_the_package_imports_numpy():
    # OpenBLAS reads its thread count once, when numpy first loads it, so an
    # import sorter must not move a layer import above the default
    assert imports_before_blas_default((PACKAGE / "__init__.py").read_text()) == []


def test_every_layer_name_is_exported_as_itself():
    missing = []
    for short in LAYERS:
        mod = importlib.import_module(f"wickns.{short}")
        missing += [f"{short}.{name}" for name in mod.__all__ if name not in wickns.__all__ or getattr(wickns, name) is not getattr(mod, name)]
    assert len(LAYERS) == 7 and missing == []


def unread_exports(exports: dict[str, list[str]], sources: list[str]) -> list[str]:
    """`layer.name` for each exported name that no source reads as a name or
    an attribute; a def or class line, an __all__ string, a comment, a
    docstring or an attribute of numpy (`np.convolve`) does not read it."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "np":
                read.add(node.attr)
    return sorted(f"{layer}.{name}" for layer, names in exports.items() for name in names if name not in read)


def test_unread_export_scan_flags_only_names_nothing_reads():
    layer = (
        '"""f and h are documented here."""\n'
        '__all__ = ["f", "g", "K", "h", "convolve"]\n'
        "def f():\n"
        "    return K()  # h\n"
        "class K:\n"
        "    pass\n"
        "def g():\n"
        "    return np.convolve(x, x)\n"
        "def h():\n"
        "    pass\n"
        "def convolve():\n"
        "    pass\n"
    )
    demo = "import m\nm.g()\n"
    exports = {"m": ["f", "g", "K", "h", "convolve"]}
    assert unread_exports(exports, [layer, demo]) == ["m.convolve", "m.f", "m.h"]
    # the caller test reads no demo, so a name only a demo calls is flagged
    assert unread_exports(exports, [layer]) == ["m.convolve", "m.f", "m.g", "m.h"]


def test_every_public_name_has_a_caller_outside_tests():
    # a public name that only its own tests or the demos call is surface
    # without a use; the package itself and the benchmark are its readers
    root = PACKAGE.parents[1]
    paths = sorted(PACKAGE.glob("*.py")) + sorted((root / "wickbench").rglob("*.py"))
    exports = {short: importlib.import_module(f"wickns.{short}").__all__ for short in LAYERS}
    assert unread_exports(exports, [path.read_text() for path in paths]) == []


def unset_keyword_options(defs: list[str], callers: list[str]) -> list[str]:
    """`function.name` for each keyword-only parameter with a default, of a
    function or method defined in `defs`, that no call in `callers` sets by
    keyword.  A call matches by the called name alone (`f(...)` or
    `x.f(...)`); one that passes on a parameter of the function around it
    under the same name (`f(U, out=out)`) forwards the option, not sets it."""
    options = set()
    for source in defs:
        for fn in ast.walk(ast.parse(source)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                options |= {(fn.name, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None}
    set_by_calls = set()

    def visit(node, params):
        for child in ast.iter_child_nodes(node):
            inner = params
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                inner = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                for k in child.keywords:
                    if not (isinstance(k.value, ast.Name) and k.value.id == k.arg and k.arg in params):
                        set_by_calls.add((name, k.arg))
            visit(child, inner)

    for source in callers:
        visit(ast.parse(source), set())
    return sorted(f"{fn}.{arg}" for fn, arg in options - set_by_calls)


def test_keyword_option_scan_flags_only_options_no_call_sets():
    src = (
        "def f(U, *, out=None, grid=None, tag=None):\n"
        "    return g(U, out=out)\n"
        "def g(U, *, out=None):\n"
        "    return U\n"
        "class K:\n"
        "    def m(self, *, flag=False, name):\n"
        "        return f(self, tag=1)\n"
        "def h(V):\n"
        "    out = V\n"
        "    return g(V, out=out)\n"
        "x = f(1, grid=2)\n"
        "K().m(name='a')\n"
    )
    assert unset_keyword_options([src], [src]) == ["f.out", "m.flag"]
    # h sets g's out from a local; passing on its own parameter would not
    forwarded = src.replace("def h(V):\n    out = V\n", "def h(V, out):\n")
    assert unset_keyword_options([src], [forwarded]) == ["f.out", "g.out", "m.flag"]


def test_every_keyword_option_is_set_outside_tests():
    # a keyword-only option that only tests set is a code path the program
    # never takes; the package and the benchmark are its callers
    root = PACKAGE.parents[1]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    bench = [path.read_text() for path in sorted((root / "wickbench").rglob("*.py"))]
    assert unset_keyword_options(package, package + bench) == []


def unread_methods(defs: list[str], readers: list[str]) -> list[str]:
    """`Class.method` for each public method or property of a class defined
    in `defs` that no source in `readers` reads as an attribute; a def line
    or an attribute of numpy (`np.allclose`) does not read it.  A class
    with a base from outside `defs` is skipped: its base may call its
    methods back (argparse calls a parser's `error`)."""
    classes = [cls for source in defs for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)]
    own = {cls.name for cls in classes}
    methods = {
        (cls.name, fn.name)
        for cls in classes
        if all(getattr(base, "id", None) in own for base in cls.bases)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not fn.name.startswith("_")
    }
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) != "np"
    }
    return sorted(f"{cls}.{name}" for cls, name in methods if name not in read)


def test_unread_method_scan_flags_only_methods_nothing_reads():
    src = (
        "class F:\n"
        "    def mass(self):\n"
        "        return self.total\n"
        "    @property\n"
        "    def total(self):\n"
        "        return np.allclose(1, 1)\n"
        "    def allclose(self, g):\n"
        "        pass\n"
        "    def __add__(self, g):\n"
        "        pass\n"
        "    def _check(self):\n"
        "        pass\n"
        "class G(F):\n"
        "    def scale(self):\n"
        "        pass\n"
        "class P(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        pass\n"
    )
    assert unread_methods([src], [src, "F().mass()\n"]) == ["F.allclose", "G.scale"]
    assert unread_methods([src], [src]) == ["F.allclose", "F.mass", "G.scale"]


def test_every_public_method_has_a_reader_outside_tests():
    # the method form of test_every_public_name_has_a_caller_outside_tests
    root = PACKAGE.parents[1]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    bench = [path.read_text() for path in sorted((root / "wickbench").rglob("*.py"))]
    assert unread_methods(package, package + bench) == []


def test_every_package_name_comes_from_one_layer():
    submodules = {name for name in wickns.__all__ if getattr(getattr(wickns, name), "__name__", None) == f"wickns.{name}"}
    owners = {name: [] for name in wickns.__all__ if name not in submodules}
    for short in LAYERS:
        for name in importlib.import_module(f"wickns.{short}").__all__:
            owners.setdefault(name, []).append(short)
    assert {name: where for name, where in owners.items() if len(where) != 1} == {}
