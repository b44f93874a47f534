"""What the testbed registry holds, as static text: each entry's dimension
and the provenance note of every known field.

Standard library only, so ``list-testbed`` prints the registry without
loading numpy or building any entry.  ``testbed`` takes each entry's ``dim``
and ``notes`` from here, and its ids are this table's keys.
"""

CATALOGUE: dict[str, tuple[int, dict[str, str]]] = {
    "flat1": (1, {
        "flat_rates": "exact: |e^{-R/z}| = e^{-R cos(theta)/r}, rate R on theta=0",
        "gevrey_null_types": "same rate via the flat/null-Gevrey equivalence",
        "direction": "bisector",
    }),
    "euler": (1, {
        "series": "alternating factorial coefficients, exact",
        "type_profile": "cosine law of the truncated-Laplace expansion; "
        "cross-checked against remainder fits",
        "z0": "integration endpoint",
        "borel_sum": "geometric Borel transform of the series, exact",
    }),
    "rat2": (2, {
        "total_family": "Taylor slices of 1/((1+z1)(1+z2)): f_{1n}(z2) = (-1)^n/(1+z2), exact",
        "series": "coefficients (-1)^{n+m}, exact",
        "gevrey_types": "the double series converges; no finite type",
        "flat_rates": "nonzero limit at the vertex: merely bounded",
    }),
    "poly": (2, {
        "series": "the polynomial's own coefficients, exact",
        "total_family": "coefficient slices of a polynomial, exact",
        "gevrey_types": "polynomials converge everywhere",
        "flat_rates": "nonzero limit at the vertex: merely bounded",
    }),
    "brg_const": (1, {
        "series": "constant series, exact",
        "type_profile": "cosine law; the flat part is e^{-z0/z} exactly",
        "z0": "integration endpoint",
    }),
    "brg_const2": (2, {
        "series": "constant series, exact",
        "z0": "integration endpoints",
        "first_order_closed": "separable product; each factor integrates in closed form",
    }),
}
