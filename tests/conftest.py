"""Fixtures shared by the test modules."""

import sys

import pytest

from hammix import martingale, mixing
from hammix.words import TableFunction


@pytest.fixture
def builds(monkeypatch):
    """Calls of expand_markov and conditional_sums, and the class of every table built.

    Each function is replaced in every loaded hammix module that holds it,
    so a caller that imported it by name is counted too.
    """
    record = {"expand_markov": 0, "conditional_sums": 0, "tables": []}
    modules = [module for name, module in sys.modules.items() if name.startswith("hammix")]
    for owner, name in ((mixing, "expand_markov"), (martingale, "conditional_sums")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            record[_name] += 1
            return _original(*args)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
    post_init = TableFunction.__post_init__

    def recorded(self):
        record["tables"].append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(TableFunction, "__post_init__", recorded)
    return record
