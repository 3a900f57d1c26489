"""Reference copy of the one-pair, all-row flat stack that the stream, the
anchor-row last layer and the split first layer replaced, kept as a
differential test oracle.

Each pair runs on its own, and every layer, the first and the last
included, runs over every long row of the pair and updates the global
stream; the candidate vectors are then gathered at the anchors.
"""

from stepsum.attention import band_pattern, etc_global_local_attention
from stepsum.autodiff import concat, take


def reference_etc_encode(model, assemblies, fixed=None):
    """Candidate vectors of every assembly, in order, from full one-pair layers.

    ``fixed`` is ignored: the reference computes layer 0 whole, so it can
    stand in for ``StepwiseEtc.etc_encode``.
    """
    vectors = []
    for assembly in assemblies:
        pattern = band_pattern(assembly.position, model.cfg.local_radius)
        long = take(model.params.token, assembly.long_ids)
        glob = take(model.params.global_kind, assembly.global_kind)
        for layer in model.params.layers:
            long, glob = etc_global_local_attention(
                long, glob, assembly.sentence_id, layer, model.attention, pattern=pattern)
        vectors.append(take(long, assembly.candidate_anchor))
    return vectors[0] if len(vectors) == 1 else concat(vectors, axis=0)
