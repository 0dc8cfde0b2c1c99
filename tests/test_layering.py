"""The import DAG holds, and the checker actually catches violations."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "check_layering.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRepoLayering:
    def test_no_upward_imports(self):
        checker = load_checker()
        assert checker.check(REPO / "src") == []
        assert checker.stale_ranks(REPO / "src") == []

    def test_script_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "layering OK" in proc.stdout


class TestCheckerCatchesViolations:
    def _fake_tree(self, tmp_path, sim_body):
        src = tmp_path / "src"
        (src / "repro" / "sim").mkdir(parents=True)
        (src / "repro" / "cli.py").write_text("import repro.sim\n")
        (src / "repro" / "__init__.py").write_text("")
        (src / "repro" / "sim" / "__init__.py").write_text(sim_body)
        return src

    def test_upward_module_level_import_flagged(self, tmp_path):
        checker = load_checker()
        src = self._fake_tree(tmp_path, "from repro.cli import main\n")
        violations = checker.check(src)
        assert len(violations) == 1
        assert "repro.sim -> repro.cli" in violations[0].replace("(rank 0) ", "")

    def test_lazy_function_level_import_is_sanctioned(self, tmp_path):
        checker = load_checker()
        src = self._fake_tree(
            tmp_path,
            "def shim():\n    from repro.cli import main\n    return main\n",
        )
        assert checker.check(src) == []

    def test_module_level_scipy_import_flagged(self, tmp_path):
        checker = load_checker()
        src = self._fake_tree(
            tmp_path,
            "import numpy\nfrom scipy import stats\n\n"
            "def solve():\n    from scipy.linalg import solve_triangular\n",
        )
        assert checker.check(src) == [
            f"{src / 'repro' / 'sim' / '__init__.py'}:2: repro.sim -> scipy at import time"
        ]

    def test_unknown_subpackage_is_an_error_not_a_pass(self, tmp_path):
        checker = load_checker()
        src = self._fake_tree(tmp_path, "")
        (src / "repro" / "newthing").mkdir()
        (src / "repro" / "newthing" / "__init__.py").write_text("")
        try:
            checker.check(src)
        except SystemExit as exc:
            assert "newthing" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("unknown subpackage should require a rank")

    def test_stale_rank_entry_flagged(self, tmp_path, monkeypatch):
        checker = load_checker()
        src = self._fake_tree(tmp_path, "")
        monkeypatch.setattr(
            checker, "LAYERS", {"sim": 0, "cli": 9, "__init__": 9, "gone": 3}
        )
        monkeypatch.setattr(checker, "SUBLAYERS", {"sim": {"__init__": 0, "ring": 2}})
        assert checker.check(src) == []
        assert checker.stale_ranks(src) == [
            f"stale rank: repro.gone names no module in {src / 'repro'}",
            f"stale rank: repro.sim.ring names no module in {src / 'repro'}",
        ]

    def test_script_exits_nonzero_on_a_stale_rank(self, tmp_path):
        # The script's ranks name the real package's modules, none of
        # which (bar sim and cli) exist in the fake tree.
        self._fake_tree(tmp_path, "")
        (tmp_path / "scripts").mkdir()
        script = tmp_path / "scripts" / SCRIPT.name
        script.write_text(SCRIPT.read_text())
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "stale rank: repro.lsm names no module" in proc.stdout
        assert "stale rank: repro.sim " not in proc.stdout
