"""The documented public API stays importable from the package root."""

import importlib
import pkgutil

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    DatastoreError,
    ReproError,
    SearchError,
    TrainingError,
    WorkloadError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        """The root's and every subpackage's ``__all__``, so a stale
        re-export of a deleted name fails here."""
        packages = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        assert len(packages) > 10
        for package in packages:
            for name in package.__all__:
                assert getattr(package, name, None) is not None, (package.__name__, name)

    def test_lazy_root_lists_every_export_and_nothing_else_resolves(self):
        assert set(repro.__all__) <= set(dir(repro))
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name

    def test_headline_classes_exported(self):
        for name in [
            "CassandraLike",
            "ScyllaLike",
            "Cluster",
            "Rafiki",
            "RafikiPipeline",
            "SurrogateModel",
            "YCSBBenchmark",
            "MGRastTraceGenerator",
            "WorkloadSpec",
        ]:
            assert name in repro.__all__

    def test_quickstart_docstring_present(self):
        assert "Quickstart" in repro.__doc__


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in [
            ConfigurationError,
            WorkloadError,
            DatastoreError,
            TrainingError,
            SearchError,
        ]:
            assert issubclass(exc, ReproError)
