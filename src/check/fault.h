/**
 * @file
 * Compile-time fault-injection points for checker validation.
 *
 * A fault point is a named statement compiled into an organization's
 * update or lookup path only when the build is configured with
 * -DBTBSIM_FAULT_POINTS=ON, and executed only when BTBSIM_FAULT names
 * it. The mutation-smoke CI job arms one point at a time and asserts
 * the differential checker catches the corruption with a shrunk repro;
 * production builds compile the macro away entirely.
 */

#ifndef BTBSIM_CHECK_FAULT_H
#define BTBSIM_CHECK_FAULT_H

namespace btbsim::check {

/** True when BTBSIM_FAULT currently names @p point (re-read per call so
 *  a validation process can arm points in turn). */
bool faultArmed(const char *point);

} // namespace btbsim::check

#ifdef BTBSIM_FAULT_POINTS
#define BTBSIM_FAULT_POINT(point, stmt)                                       \
    do {                                                                      \
        if (::btbsim::check::faultArmed(point)) {                             \
            stmt;                                                             \
        }                                                                     \
    } while (0)
#else
#define BTBSIM_FAULT_POINT(point, stmt)                                       \
    do {                                                                      \
    } while (0)
#endif

#endif // BTBSIM_CHECK_FAULT_H
