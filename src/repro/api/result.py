"""Structured query results and uniform countermodel rendering.

A :class:`Result` is what :meth:`repro.api.plan.PreparedQuery.execute`
returns: the verdict, the algorithm that produced it, an optional
countermodel and — for open queries prepared with free variables — the
set of certain answers.  It subsumes the older
:class:`repro.core.entailment.EntailmentReport` (which the one-shot
wrappers still return for compatibility) and owns the one rendering
routine used everywhere: :func:`render_model` prints both kinds of
countermodel the algorithms produce — :class:`~repro.core.models.Structure`
instances from the brute-force procedures and bare word tuples from the
monadic fast paths — through a single code path, so the CLI, the examples
and library callers all show the same text for the same model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.models import LazyModel, Structure
from repro.flexiwords.flexiword import Word


def render_model(model: Structure | Word | None) -> str:
    """One uniform rendering for every countermodel shape.

    Words (tuples of predicate-set letters) print as
    ``{P} < {P,Q} < {}``; :class:`Structure` countermodels print through
    their own ``__str__``; ``None`` states that no witness was produced.
    """
    if model is None:
        return "(no countermodel produced)"
    if isinstance(model, tuple):  # a monadic word model
        rendered = " < ".join(
            "{" + ",".join(sorted(letter)) + "}" for letter in model
        )
        return rendered or "(empty model)"
    return str(model)


@dataclass(frozen=True)
class Result:
    """Outcome of executing a prepared query.

    Attributes:
        holds: the entailment verdict (for open queries: True when at
            least one certain answer exists).
        method: name of the decision procedure that settled the query
            (same vocabulary as :func:`repro.core.entailment.explain`).
        countermodel: a falsifying minimal model when the query does not
            hold and the procedure produces witnesses; None otherwise.
            An n-ary countermodel is built on first access (see
            :class:`~repro.core.models.LazyModel`).
        answers: for open queries (prepared with ``free_vars``), the
            frozen set of certain-answer tuples; None for closed queries.
    """

    holds: bool
    method: str
    countermodel: Structure | Word | None = LazyModel()
    answers: frozenset[tuple[str, ...]] | None = None

    def __bool__(self) -> bool:
        return self.holds

    def render_countermodel(self) -> str:
        """The countermodel as text (see :func:`render_model`)."""
        return render_model(self.countermodel)

    def __str__(self) -> str:
        if self.answers is not None:
            shown = ", ".join(str(t) for t in sorted(self.answers))
            return f"answers[{self.method}]: {{{shown}}}"
        verdict = "entailed" if self.holds else "not entailed"
        text = f"{verdict} [{self.method}]"
        if not self.holds and self.countermodel is not None:
            text += f"; countermodel: {self.render_countermodel()}"
        return text
