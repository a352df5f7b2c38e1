# %% md
# Dynamic fuzzy network: propagation and counters
# %%
from fuzzkey import DynamicFuzzyNetwork
from fuzzkey.network import cost

net = DynamicFuzzyNetwork(n_features=4, n_sets=3, n_layers=4)
print("fuzzy width:", net.fuzzy_width)
print("weight shapes:", [w.shape for w in net.weights])

# %%
# One forward pass: fuzzy layer -> hidden mean -> output mean.
output, layers, stats = net.propagate([0.1, 0.4, 0.7, 0.95])
print("fuzzy layer:", tuple(round(v, 3) for v in layers[0]))
print("hidden layer:", tuple(round(v, 3) for v in layers[1]))
print("output:", round(output, 4))
print("counters:", stats)  # mf_evals is exactly N*n

# %%
# Cost scales linearly with the feature count at fixed N.
for n in (1, 2, 4, 8, 16):
    probe = DynamicFuzzyNetwork(n, 3, 4)
    _, _, s = probe.propagate([0.5] * n)
    print(f"n={n:>2}  mf_evals={s.mf_evals:>3}  hidden_ops={s.hidden_ops}")

# %%
# The counters follow from the shape alone: cost() gives them without
# building the network, which is how reports and `fuzzkey stats` get them.
deep = DynamicFuzzyNetwork(3, 5, 6)
_, _, counted = deep.propagate([0.2, 0.5, 0.8])
print("counted:", counted)
print("closed form:", cost(3, 5, 6))
print("one million features:", cost(1_000_000, 3, 4))
