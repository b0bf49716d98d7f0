"""k-bonacci words over the infinite alphabet: generation, palindrome
counting and structure, and executable verification of the counting
formulas against scan oracles.

Import from the submodules: ``kbona.words``, ``kbona.palindromes``,
``kbona.counting``, ``kbona.structure``, ``kbona.verify`` and
``kbona.cli``."""

__version__ = "0.1.0"
