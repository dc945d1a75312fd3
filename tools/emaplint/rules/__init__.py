"""Rule modules; importing this package registers every rule.

Adding a rule: create ``emNNN_<slug>.py`` defining a
:class:`~emaplint.registry.Rule` subclass decorated with
:func:`~emaplint.registry.rule`, import it below, and add a
``bad``/``good`` fixture pair plus a case in
``tools/emaplint/tests/test_rules.py`` — the fixture test asserts the
rule fires on the bad twin and stays silent on the good one.
"""

from emaplint.rules import (  # noqa: F401  (registration side effects)
    em001_rng,
    em004_float_eq,
    em005_annotations,
    em006_exceptions,
    em007_async_blocking,
    em008_task_leak,
    em009_generation_cache,
    em010_metric_names,
    em012_await_lock,
    em013_unreached_module,
)
