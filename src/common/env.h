/**
 * @file
 * Facade over every BTBSIM_* environment knob. All env reads in the
 * library go through here, so the full knob surface is enumerable: each
 * knob is registered once in kKnobs with its default and a one-line
 * description, and `btbsim-stats env` dumps the table (name, default,
 * current value). Adding a getenv() call anywhere else is a bug — add a
 * Knob entry instead (env_test cross-checks the table against the
 * accessors).
 */

#ifndef BTBSIM_COMMON_ENV_H
#define BTBSIM_COMMON_ENV_H

#include <cstdint>
#include <string>
#include <vector>

namespace btbsim::env {

/** One registered environment knob. */
struct Knob
{
    const char *name;        ///< Full variable name ("BTBSIM_WARMUP").
    const char *fallback;    ///< Default rendered for humans ("500000").
    const char *description; ///< One line, for the env dump / README.
};

/** Every knob the simulator honours, in table order. */
const std::vector<Knob> &knobs();

/** True when @p name is a registered knob. */
bool isKnown(const std::string &name);

/** Raw value: the variable's value, or "" when unset/empty. */
std::string raw(const char *name);

/** True when the variable is set to a non-empty value. */
bool isSet(const char *name);

/** Unsigned decimal integer knob; @p fallback when unset/empty. Throws
 *  std::invalid_argument naming the knob and its value on a sign, a
 *  non-digit, trailing characters or overflow ("-1", "1e6", "500k"). */
std::uint64_t u64(const char *name, std::uint64_t fallback);

/** Flag semantics: set, non-empty and not "0". */
bool flag(const char *name);

/** True when the variable is explicitly set to "0" (opt-out knobs). */
bool disabled(const char *name);

/** String knob; @p fallback when unset/empty. */
std::string str(const char *name, const std::string &fallback = "");

/**
 * Output-path semantics shared by BTBSIM_JSON_OUT / BTBSIM_CSV_OUT:
 * unset/empty/"0" -> "" (off), "1"/"true" -> @p default_path, anything
 * else is the path itself.
 */
std::string outPath(const char *name, const std::string &default_path);

} // namespace btbsim::env

#endif // BTBSIM_COMMON_ENV_H
