"""The repo's performance benchmark (see README.md in this directory).

Importable as the package ``perf`` once ``benchmarks/`` is on
``sys.path``; ``run.py`` and ``tests/conftest.py`` arrange that.
"""
