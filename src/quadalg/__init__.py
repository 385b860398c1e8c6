"""Exact q-deformed calculus on a quadratic algebra and its operator realization.

The package provides, over exact Laurent-polynomial scalars:

  * ``ring``       q-integers, q-factorials, exact division, one binomial
                   Phi_m for the root-of-unity test and for cancelling, and
                   the fraction field of Q[q, q^-1]
  * ``lin``        the shared linear-combination core: zero-dropping
                   accumulation and the base class of the element classes
  * ``aq``         the quadratic algebra on w1..w4 with PBW normal ordering
  * ``qcalc``      q-difference operators z^a K^d [d]^g in canonical form
  * ``transform``  the divided-powers correspondence and right-dual operators
  * ``uq``         the enveloping-algebra fragment: Serre normal forms,
                   straightening, and the star action in closed form
  * ``verma``      highest-weight vectors, raising actions, bounded singular scans
  * ``dirac``      the 2x2 operator matrices factoring the wave operator
  * ``parse``      the one expression grammar of the command line
  * ``suites``     named verification suites with deterministic reports
  * ``cli``        the ``quadalg`` command-line front end

Only what the command line, the suites or their callers reach lives here;
the reference implementations the tests compare against live in the tests.
The package root re-exports nothing: import each name from its module.
"""

__version__ = "0.1.0"
