"""Shared test helpers: deterministic instance streams."""

from dpnets.verify import capped_instance


def instance_stream(base_seed, count, p_star_lo, p_star_hi, max_items):
    """Deterministic list of instances covering the p_star range round-robin."""
    span = p_star_hi - p_star_lo + 1
    return [
        capped_instance(base_seed + k, p_star_lo + k % span, max_items)
        for k in range(count)
    ]
