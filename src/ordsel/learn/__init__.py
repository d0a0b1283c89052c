"""Learning layer: feature transforms, a small SVM, and the training pipeline
that turns benchmark runtimes into one binary cost classifier per expansion
ordering.

Everything here is deterministic: no hidden RNG state, seeded shuffles only,
and all tie-breaks resolve toward the lower index / earlier grid position.
"""
