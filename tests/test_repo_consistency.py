"""Meta-tests: the documentation and the repository must agree."""

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
    """Every cycle charge inside src/repro must carry a site label."""

    @staticmethod
    def _charge_calls(source: str):
        """Yield (line_number, call_text) for each ``.charge(`` call,
        following the call to its balancing close paren so multi-line
        calls are inspected whole."""
        for match in re.finditer(r"\.charge\(", source):
            start = match.end()  # just past the open paren
            depth = 1
            pos = start
            while depth and pos < len(source):
                if source[pos] == "(":
                    depth += 1
                elif source[pos] == ")":
                    depth -= 1
                pos += 1
            line = source.count("\n", 0, match.start()) + 1
            yield line, source[start:pos - 1]

    def test_no_unattributed_charges_in_src(self):
        offenders = []
        for path in (REPO / "src" / "repro").rglob("*.py"):
            for line, call in self._charge_calls(path.read_text()):
                if "site=" not in call:
                    offenders.append(
                        f"{path.relative_to(REPO)}:{line}: "
                        f".charge({call.strip()})")
        assert not offenders, (
            "charge calls without site= attribution:\n"
            + "\n".join(offenders))

    def test_site_labels_follow_the_taxonomy(self):
        """Literal site labels are layer.op[.component] with a known
        layer prefix (docs/ARCHITECTURE.md; the cluster additionally
        prefixes node names at merge time, which is outside this
        literal-label check)."""
        pattern = re.compile(r'site="([^"]+)"')
        for path in (REPO / "src" / "repro").rglob("*.py"):
            for label in pattern.findall(path.read_text()):
                layer = label.split(".")[0]
                assert layer in {"hw", "kernel", "libmpk", "apps",
                                 "net"}, (
                    f"{path.name}: site '{label}' has unknown layer "
                    f"'{layer}'")
                assert label.count(".") >= 1, (
                    f"{path.name}: site '{label}' is not dotted")


class TestPackaging:
    def test_every_package_directory_has_init(self):
        for directory in (REPO / "src" / "repro").rglob("*"):
            if directory.is_dir() and any(directory.glob("*.py")):
                assert (directory / "__init__.py").exists(), directory

    def test_version_is_consistent(self):
        import repro
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject
