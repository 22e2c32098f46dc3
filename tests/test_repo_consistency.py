"""Meta-tests: the documentation and the repository must agree."""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestDesignDocument:
    def test_experiment_index_points_at_real_benchmarks(self):
        design = (REPO / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert referenced, "DESIGN.md lost its experiment index"
        for name in referenced:
            assert (REPO / "benchmarks" / name).is_file(), name

    def test_every_benchmark_is_documented_somewhere(self):
        docs = ((REPO / "DESIGN.md").read_text()
                + (REPO / "EXPERIMENTS.md").read_text()
                + (REPO / "README.md").read_text())
        for bench in (REPO / "benchmarks").glob("bench_*.py"):
            assert bench.name in docs, (
                f"{bench.name} is not mentioned in DESIGN/EXPERIMENTS/"
                f"README")

    def test_modules_named_in_design_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for dotted in set(re.findall(r"`(repro\.[a-z_.]+)`", design)):
            parts = dotted.split(".")
            base = REPO / "src" / pathlib.Path(*parts)
            assert (base.with_suffix(".py").is_file()
                    or (base / "__init__.py").is_file()), dotted


class TestReadme:
    def test_examples_table_matches_directory(self):
        readme = (REPO / "README.md").read_text()
        on_disk = {p.name for p in (REPO / "examples").glob("*.py")}
        documented = set(re.findall(r"examples/(\w+\.py)", readme))
        missing = on_disk - documented
        assert not missing, f"examples not in README: {missing}"
        phantom = documented - on_disk
        assert not phantom, f"README mentions absent examples: {phantom}"

    def test_quickstart_code_block_is_current_api(self):
        readme = (REPO / "README.md").read_text()
        assert "lib.mpk_init(task" in readme
        assert "lib.domain(task" in readme


class TestAttribution:
    """Every cycle charge inside src/repro must carry a site label:
    either ``clock.charge(cycles, site="layer.op")``, or a charge on a
    ledger slot, ``slot.charge(cycles)``, whose receiver is bound from
    a ``clock.site("layer.op")`` call somewhere in src/repro."""

    LAYERS = {"hw", "kernel", "libmpk", "apps", "net"}

    @staticmethod
    def _sources():
        """(relative path, parsed module) for every file in src/repro."""
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            yield path.relative_to(REPO), ast.parse(path.read_text())

    @staticmethod
    def _name(expr) -> str | None:
        """The last identifier of ``x``, ``a.x`` or ``a.b.x``."""
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    @classmethod
    def _is_site_call(cls, node) -> bool:
        return isinstance(node, ast.Call) and cls._name(node.func) == "site"

    @classmethod
    def _slot_names(cls) -> set[str]:
        """Names assigned from a ``site(...)`` call anywhere in src."""
        names = set()
        for _, tree in cls._sources():
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and \
                        cls._is_site_call(node.value):
                    names.update(cls._name(target)
                                 for target in node.targets)
        names.discard(None)
        return names

    def test_no_unattributed_charges_in_src(self):
        slots = self._slot_names()
        assert slots, "no ledger slot is bound from a site() call"
        offenders = []
        for path, tree in self._sources():
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "charge"):
                    continue
                if any(kw.arg == "site" for kw in node.keywords):
                    continue
                receiver = node.func.value
                if (self._is_site_call(receiver)
                        or self._name(receiver) in slots):
                    continue
                offenders.append(f"{path}:{node.lineno}: "
                                 f"{ast.unparse(node)}")
        assert not offenders, (
            "charge calls with neither site= nor a ledger slot:\n"
            + "\n".join(offenders))

    def test_site_labels_follow_the_taxonomy(self):
        """Literal site labels — ``site="..."`` keywords and the labels
        interned with ``site("...")`` — are layer.op[.component] with a
        known layer prefix (docs/ARCHITECTURE.md; the cluster
        additionally prefixes node names at merge time, which is
        outside this literal-label check)."""
        seen = {"site=": 0, "site()": 0}
        for path, tree in self._sources():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                literals = [("site=", kw.value) for kw in node.keywords
                            if kw.arg == "site"]
                if self._is_site_call(node) and node.args:
                    literals.append(("site()", node.args[0]))
                for kind, value in literals:
                    if not (isinstance(value, ast.Constant)
                            and isinstance(value.value, str)):
                        continue
                    seen[kind] += 1
                    label = value.value
                    layer = label.split(".")[0]
                    assert layer in self.LAYERS, (
                        f"{path}: site '{label}' has unknown layer "
                        f"'{layer}'")
                    assert label.count(".") >= 1, (
                        f"{path}: site '{label}' is not dotted")
        assert all(seen.values()), f"no literal labels found: {seen}"


class TestOneBlockingBegin:
    """``Libmpk.begin_blocking`` is the one way to wait for a hardware
    key: it alone tags ``task.wanted_vkey`` (besides ``Task.__init__``
    setting it to None) and charges the ``libmpk.keycache.wait`` entry,
    always from core/api.py."""

    @staticmethod
    def _functions():
        """(path, qualified function name, node) for every function in
        src/repro, class methods named ``Class.method``."""
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text())
            rel = path.relative_to(REPO).as_posix()
            stack = [(tree, "")]
            while stack:
                node, prefix = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        name = prefix + child.name
                        if not isinstance(child, ast.ClassDef):
                            yield rel, name, child
                        stack.append((child, name + "."))

    def test_only_begin_blocking_tags_wanted_vkey(self):
        taggers = set()
        for rel, name, func in self._functions():
            for node in ast.walk(func):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                if any(isinstance(t, ast.Attribute)
                       and t.attr == "wanted_vkey" for t in targets):
                    taggers.add(f"{rel}:{name}")
        assert taggers == {"src/repro/kernel/task.py:Task.__init__",
                           "src/repro/core/api.py:Libmpk.begin_blocking"}

    def test_key_wait_is_charged_only_in_libmpk(self):
        sites = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                labels = [kw.value for kw in node.keywords
                          if kw.arg == "site"]
                if TestAttribution._is_site_call(node):
                    labels += node.args[:1]
                if any(isinstance(label, ast.Constant)
                       and label.value == "libmpk.keycache.wait"
                       for label in labels):
                    sites.append(path.relative_to(REPO).as_posix())
        assert sites, "nothing charges libmpk.keycache.wait"
        assert set(sites) == {"src/repro/core/api.py"}, sites


class TestDocMembers:
    """Every backticked ``Class.member`` in docs/ARCHITECTURE.md and
    docs/API.md, where ``Class`` is a class defined under src/repro,
    names a member that exists: a ``def``, a class attribute, a
    ``__slots__`` entry, a ``self.x`` assignment, or one of these on a
    base class defined under src/repro.  ``prefix_*`` wildcards (such
    as ``MM._protect_cache_*``) are skipped."""

    DOCS = ("docs/ARCHITECTURE.md", "docs/API.md")
    REF = re.compile(r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*)(\*?)")

    @staticmethod
    def _members(cls: ast.ClassDef) -> set[str]:
        names = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = {t.id for t in getattr(stmt, "targets", None)
                           or [stmt.target] if isinstance(t, ast.Name)}
                names |= targets
                if "__slots__" in targets and stmt.value is not None:
                    names.update(node.value
                                 for node in ast.walk(stmt.value)
                                 if isinstance(node, ast.Constant)
                                 and isinstance(node.value, str))
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        names.add(sub.attr)
        return names

    @classmethod
    def _classes(cls) -> dict[str, list[tuple[set[str], list[str]]]]:
        """Class name -> (members, base names) of each class of that
        name under src/repro."""
        classes: dict = {}
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    bases = [TestAttribution._name(base)
                             for base in node.bases]
                    classes.setdefault(node.name, []).append(
                        (cls._members(node), bases))
        return classes

    def test_docs_name_only_existing_members(self):
        classes = self._classes()

        def has(name: str, member: str, seen: set[str]) -> bool:
            seen.add(name)
            return any(member in members
                       or any(base in classes and base not in seen
                              and has(base, member, seen)
                              for base in bases)
                       for members, bases in classes[name])

        stale, checked = [], 0
        for doc in self.DOCS:
            text = re.sub(r"```.*?```", "", (REPO / doc).read_text(),
                          flags=re.S)
            for span in re.findall(r"`([^`]+)`", text):
                for name, member, star in self.REF.findall(span):
                    if star or name not in classes:
                        continue
                    checked += 1
                    if not has(name, member, set()):
                        stale.append(f"{doc}: `{name}.{member}`")
        assert checked, "no Class.member reference found in the docs"
        assert not stale, stale


class TestPackaging:
    def test_every_package_directory_has_init(self):
        for directory in (REPO / "src" / "repro").rglob("*"):
            if directory.is_dir() and any(directory.glob("*.py")):
                assert (directory / "__init__.py").exists(), directory

    def test_version_is_consistent(self):
        import repro
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject
