"""Loop oracles that the series tests pin the fast paths to."""


def _conv_school(u, v, n):
    # the double loop the tests pin every other path to
    out = [0] * n
    for j in range(min(len(u), n)):
        x = u[j]
        if x:
            top = min(len(v), n - j)
            for k in range(top):
                y = v[k]
                if y:
                    out[j + k] += x * y
    return out
