"""
Rating entropy (IEI) basics
===========================

The Interaction Entropy Index treats user satisfaction ratings as a
probability distribution over a discrete scale and measures its Shannon
entropy in bits. Tightly clustered ratings -> low entropy (the interface
feels predictable); ratings spread over the whole scale -> high entropy.
"""

from adux import (
    Dataset,
    SessionObservation,
    build_distribution,
    five_point,
    iei,
    iei_by_group,
)

space = five_point()  # the shipped 1..5 scale

# A tame feature: almost everyone rates it 4 or 5.
tame = build_distribution([4, 5, 5, 4, 5, 5, 5, 4, 5, 5], space)
# A volatile feature: ratings all over the place.
volatile = build_distribution([1, 5, 2, 4, 3, 5, 1, 2, 4, 3], space)

print("tame probs:    ", tame.probs)
print("volatile probs:", volatile.probs)
print()
print(f"tame IEI:     {iei(tame).value:.4f} bits "
      f"(normalized {iei(tame).normalized:.3f})")
print(f"volatile IEI: {iei(volatile).value:.4f} bits "
      f"(normalized {iei(volatile).normalized:.3f})")
print()
print("The normalized form divides by log2(5) = max entropy on this scale,")
print("so 1.0 means 'uniformly spread' regardless of how many levels exist.")

# Grouped computation over a session log ------------------------------------

observations = []
for i, rating in enumerate([4, 5, 4, 5, 5, 4]):
    observations.append(SessionObservation(f"t{i}", "autocomplete", period=0,
                                           rating=rating))
for i, rating in enumerate([1, 5, 3, 2, 5, 4]):
    observations.append(SessionObservation(f"c{i}", "chatbot", period=0,
                                           rating=rating))
dataset = Dataset(space, tuple(observations))

print()
print("Per-category IEI (pooled: one distribution per category):")
for key, entry in iei_by_group(dataset.counts()):
    print(f"  {key:14s} {entry.value:.4f} bits over {entry.n_ratings} ratings")

# Pooling is the default. The alternative averages the entropy of each
# session separately; the aggregation is chosen when the counts are made,
# and iei_by_group reads it from them. With one rating per session that
# average is 0, which is why the choice matters and both are exposed.
per_session = dataset.counts("mean-of-sessions")
print()
print("Mean-of-sessions IEI (each session here has a single rating):")
for key, entry in iei_by_group(per_session):
    print(f"  {key:14s} {entry.value:.4f} bits")
