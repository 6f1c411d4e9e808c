"""Exact Witt-group-valued degrees of polynomial endomorphisms of punctured
affine space, with unimodular-row completability obstructions.

The package namespace binds no names: each name is imported from the
module that defines it, e.g. ``wittdeg.witt.witt_equal`` or
``wittdeg.degree.degree_of``.  The modules, in pipeline order: errors,
fields (exact fields and square classes), orders (monomial orders and
packed monomials), poly (sparse polynomials), groebner (Groebner bases
and quotient algebras), witt (symmetric forms and Witt invariants),
degree (the degree pipeline), koszul (Koszul duality verification),
umrow (unimodular rows) and cli (the ``wittdeg`` command).
"""
