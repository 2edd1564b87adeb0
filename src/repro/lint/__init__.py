"""``simlint``: static analysis of the engine's determinism contracts.

Every result this reproduction produces rests on guarantees tier-1's
pinned renders, schedules and traces check only on the paths they run.
``repro.lint`` keeps the rules that catch what those pins miss (each
one earned its place against a mutation corpus, DESIGN section 9):

=======  ==================================================================
family   what it guards
=======  ==================================================================
``DET``  determinism hazards the pins cannot see: ``id()`` in
         orderings, set-iteration order leaks, anonymous seeds in
         experiment code
``TRC``  trace emits that lack a field :mod:`repro.obs.schema` requires
``IPR``  interprocedural: a lock or temp file that escapes a normal or
         exceptional exit, and host I/O reachable from a ``@cell``
=======  ==================================================================

It walks the AST of the whole tree (stdlib ``ast`` only, no
third-party dependencies).  Run it as ``python -m repro.lint
[--format text|json|sarif] [--baseline lint_baseline.json] [paths...]``;
suppress a deliberate finding in place with a ``# simlint:
disable=RULE`` comment on the flagged line, or grandfather legacy
findings in a committed baseline file.  ``python -m repro.lint
--rules`` prints the full catalogue.
"""

from repro.lint.core import Finding, lint_paths, rule_catalogue

__all__ = ["Finding", "lint_paths", "rule_catalogue"]
