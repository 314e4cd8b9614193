"""Documentation stays true: intra-repo links resolve, doctests run,
and every name the examples import from ``repro`` exists.

Ties the docs into tier-1: the CI docs lane runs the same link checker
(``tools/check_links.py``) and ``pytest --doctest-modules``; these tests
keep a plain local ``pytest`` run equally honest.
"""

import ast
import doctest
import importlib
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Every module whose docstrings carry runnable examples (both CI doctest
# lanes run --doctest-modules over the same set; the scan below keeps the
# list complete).
DOCTESTED_MODULES = [
    "repro.faults",
    "repro.metrics.events",
    "repro.nn.tensor",
    "repro.obs",
    "repro.runtime.supervisor",
    "repro.serving.protocol",
    "repro.streaming.admission",
    "repro.obs.exporters",
    "repro.obs.registry",
    "repro.obs.tracing",
    "repro.streaming.buffer",
    "repro.streaming.calibration",
    "repro.streaming.coordinator",
    "repro.streaming.drift",
    "repro.streaming.engine",
    "repro.streaming.multi",
    "repro.streaming.refresh",
]

# The same files the CI link check names: README.md, docs/*.md and the
# three top-level records.
MARKDOWN_FILES = ["README.md", "PAPER.md", "ROADMAP.md", "CHANGES.md"] + [
    path.relative_to(REPO_ROOT).as_posix()
    for path in sorted((REPO_ROOT / "docs").glob("*.md"))]

EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))


class TestIntraRepoLinks:
    @pytest.mark.parametrize("name", MARKDOWN_FILES)
    def test_markdown_links_resolve(self, name):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            from check_links import broken_links
        finally:
            sys.path.pop(0)
        path = REPO_ROOT / name
        assert path.exists(), f"{name} is missing"
        failures = broken_links(path)
        assert failures == [], f"broken links in {name}: {failures}"

    def test_link_check_covers_every_doc(self):
        assert "docs/robustness.md" in MARKDOWN_FILES

    def test_required_documentation_exists(self):
        assert (REPO_ROOT / "README.md").exists()
        assert (REPO_ROOT / "docs" / "architecture.md").exists()
        assert (REPO_ROOT / "docs" / "checkpoints.md").exists()

    def test_readme_covers_the_required_sections(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for needle in ("Install", "Quickstart", "repro.experiments",
                       "shared_fleet", "Benchmark index",
                       "Repository map", "Observability",
                       "repro.serving", "DetectionServer"):
            assert needle in readme, f"README lacks {needle!r}"


class TestExamples:
    """No test runs ``examples/`` end to end, so a deleted or renamed
    public name would break an example silently.  Every name an example
    imports with ``from repro... import`` (at any depth) must resolve."""

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_repro_imports_resolve(self, name):
        tree = ast.parse((REPO_ROOT / "examples" / name).read_text())
        missing = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                missing += [f"{node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
        assert missing == [], f"{name} imports missing names: {missing}"


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(REPO_ROOT / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_from(tree: ast.AST, module: str, package: bool) -> set:
    """``(source module, name)`` for every ``from source import name``
    in ``module``'s tree (relative imports resolved)."""
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module
            if node.level:
                base = module.split(".")[:None if package else -1]
                base = base[:len(base) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module
                                          else []))
            pairs.update((source, alias.name) for alias in node.names)
    return pairs


def _unused_imports(tree: ast.AST, reexported=frozenset()) -> list:
    """Names a module imports but never reads.  A name counts as read
    where it appears as a name, inside a string that parses as an
    expression (quoted annotations, ``__all__`` entries) or in
    ``reexported``: names other modules import from this one."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            bound.update(alias.asname or alias.name
                         for alias in node.names if alias.name != "*")
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(expression)
                        if isinstance(name, ast.Name))
    return sorted(bound - used - set(reexported))


class TestUnusedImports:
    """Every import under ``src/`` is read, so a deletion leaves no dead
    import behind.  A name another module imports from this one is a
    deliberate re-export and counts as read (``AdmissionClosed`` lives in
    ``streaming/coordinator.py`` and is imported from there)."""

    def test_src_has_no_unused_imports(self):
        trees, reexports = {}, set()
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            tree = ast.parse(path.read_text())
            module = _module_name(path)
            trees[module] = (path, tree)
            reexports |= _imported_from(tree, module,
                                        path.name == "__init__.py")
        unused = {}
        for module, (path, tree) in trees.items():
            names = _unused_imports(tree, {name for source, name in reexports
                                           if source == module})
            if names:
                unused[str(path.relative_to(REPO_ROOT))] = names
        assert unused == {}, f"unused imports: {unused}"

    def test_planted_unused_import_is_found(self):
        tree = ast.parse("import os\nfrom typing import List, Optional\n"
                         "def f(x: 'Optional[int]'):\n    return x\n")
        assert _unused_imports(tree) == ["List", "os"]
        assert _unused_imports(tree, {"os"}) == ["List"]

    def test_reexport_resolves_relative_imports(self):
        tree = ast.parse("from .coordinator import AdmissionClosed\n"
                         "from ..core import fused\n")
        assert _imported_from(tree, "repro.streaming.engine", False) == {
            ("repro.streaming.coordinator", "AdmissionClosed"),
            ("repro.core", "fused")}
        package = ast.parse("from .coordinator import AdmissionClosed\n")
        assert _imported_from(package, "repro.streaming", True) == {
            ("repro.streaming.coordinator", "AdmissionClosed")}


class TestClockDiscipline:
    """Durations are measured with the monotonic ``time.perf_counter``,
    never the wall clock — ``time.time()`` jumps under NTP slews and
    DST, which corrupts benchmark numbers and latency histograms.  The
    audit allowlists the one intentional wall-clock use: a span's
    *start timestamp* in ``obs/tracing.py`` (an epoch anchor for log
    correlation; the span's duration uses ``perf_counter``)."""

    ALLOWED_WALL_CLOCK = {"src/repro/obs/tracing.py"}

    def test_no_wall_clock_durations_outside_the_allowlist(self):
        offenders = []
        for area in ("src", "tools", "benchmarks"):
            root = REPO_ROOT / area
            if not root.exists():
                continue
            for path in root.rglob("*.py"):
                relative = str(path.relative_to(REPO_ROOT))
                if relative in self.ALLOWED_WALL_CLOCK:
                    continue
                if "time.time(" in path.read_text():
                    offenders.append(relative)
        assert offenders == [], (
            f"wall-clock time.time() found in {offenders}; use "
            f"time.perf_counter() for durations (or extend the "
            f"allowlist for a genuine epoch timestamp)")


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
    def test_module_doctests_pass(self, module_name):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0, (
            f"{result.failed} doctest failure(s) in {module_name}")
        assert result.attempted > 0, (
            f"{module_name} is in DOCTESTED_MODULES but carries no "
            f"doctests")

    # The package docstring's quickstart trains a model; the README copy
    # of it runs in test_quickstart_snippet_runs_as_written instead.
    EXEMPT = {"repro"}

    def test_every_module_with_examples_is_listed(self):
        src = REPO_ROOT / "src"
        carrying = set()
        for path in (src / "repro").rglob("*.py"):
            if ">>>" not in path.read_text():
                continue
            parts = path.relative_to(src).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            carrying.add(".".join(parts))
        missing = sorted(carrying - set(DOCTESTED_MODULES) - self.EXEMPT)
        assert missing == [], (
            f"modules with doctests missing from DOCTESTED_MODULES: "
            f"{missing}")

    def test_ci_doctest_lanes_run_the_listed_modules(self):
        """Every CI doctest lane names the same paths, and they cover
        every listed module."""
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml") \
            .read_text()
        lanes = []
        for command in workflow.split("--doctest-modules")[1:]:
            paths = []
            for token in command.split():
                if token == "\\":
                    continue
                if not token.startswith("src/"):
                    break
                paths.append(token)
            lanes.append(paths)
        assert len(lanes) == 2, lanes
        assert lanes[0] == lanes[1], lanes
        uncovered = []
        for module in DOCTESTED_MODULES:
            stem = "src/" + module.replace(".", "/")
            if not any(path in (stem, stem + ".py") or
                       stem.startswith(path.rstrip("/") + "/")
                       for path in lanes[0]):
                uncovered.append(module)
        assert uncovered == [], f"no CI doctest lane runs {uncovered}"

    def test_quickstart_snippet_runs_as_written(self):
        """The README's five-line quickstart, executed verbatim-ish on a
        scaled-down dataset so it stays test-budget fast."""
        from repro.core import CAEConfig, CAEEnsemble, EnsembleConfig
        from repro.datasets import load_dataset

        dataset = load_dataset("ecg", scale=0.1)
        model = CAEEnsemble(
            CAEConfig(input_dim=dataset.dims, embed_dim=8, n_layers=1),
            EnsembleConfig(n_models=2, epochs_per_model=1,
                           max_training_windows=64))
        scores = model.fit(dataset.train).score(dataset.test)
        assert scores.shape[0] == dataset.test.shape[0]
