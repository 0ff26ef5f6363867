"""Fixed instruction preambles sent to the LLM oracle.

Kept as versioned constants so a given toolkit version always issues the same
prompt for the same abstraction.
"""

PROMPT_VERSION = "1"

FEATURE_TABLE_PREAMBLE = (
    "You are given summary statistics (min, quartiles, max, mean, standard "
    "deviation, distinct count) of numeric features describing business "
    "objects extracted from an object-centric event log. Identify anomalous "
    "patterns suggested by these statistics: features with extreme ranges, "
    "jumps beyond the 75th percentile, activities that repeat unusually "
    "often, and rare activities worth investigating. Answer as a numbered "
    "list of findings with short justifications."
)
