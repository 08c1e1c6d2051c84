/**
 * @file
 * Strict parsing of the simulator's spec strings.
 *
 * Every user-facing spec (detector, recovery, traffic pattern, length
 * distribution, --faults, --reconfig) reads its numbers through here,
 * so each rejects malformed input the same way: with a clean fatal(),
 * never a sign-wrapped or truncated value or an uncaught
 * std::invalid_argument.
 */

#ifndef WORMNET_COMMON_SPEC_HH
#define WORMNET_COMMON_SPEC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace wormnet
{

/** Split @p text at every @p sep, keeping empty fields ("a:" gives
 *  {"a", ""}). */
std::vector<std::string> splitFields(const std::string &text, char sep);

/** fatal() when @p fields (@p spec split) has more than @p max. */
void rejectSurplusFields(const std::vector<std::string> &fields,
                         std::size_t max, const std::string &spec);

/** A strict unsigned decimal: digits only (no sign, space or base
 *  prefix), at most @p max. @return false on anything else. */
bool tryParseUnsigned(const std::string &text, std::uint64_t max,
                      std::uint64_t &out);

/** A finite real in strtod syntax spanning all of @p text. */
bool tryParseReal(const std::string &text, double &out);

/** tryParseUnsigned() into @p T; fatal() naming @p what on failure. */
template <typename T = std::uint64_t>
T
parseUnsigned(const std::string &text, const char *what)
{
    std::uint64_t v = 0;
    if (!tryParseUnsigned(text, std::numeric_limits<T>::max(), v))
        fatal("bad ", what, " value '", text,
              "': expected an unsigned decimal integer no larger than ",
              std::uint64_t(std::numeric_limits<T>::max()));
    return static_cast<T>(v);
}

/** tryParseReal(); fatal() naming @p what on failure. */
double parseReal(const std::string &text, const char *what);

/**
 * The item grammar --faults and --reconfig share: comma-separated
 * "<kind>:<where>@<cycle>" items, a link written "<a>><b>" and a
 * router "<n>". Errors name the option and the item, then the usage.
 */
class ItemSpec
{
  public:
    /** One item, split at its first ':'. */
    struct Item
    {
        std::string text, kind, rest;
    };

    ItemSpec(const char *option, const char *usage)
        : option_(option), usage_(usage)
    {}

    /** The non-empty items of @p spec; fatal() on one without ':'. */
    std::vector<Item> items(const std::string &spec) const;

    /** Split item.rest at its last '@': @return where, cycle in @p at. */
    std::string timed(const Item &item, Cycle &at) const;

    NodeId node(const Item &item, const std::string &text) const;

    /** The endpoints of "<a>><b>". */
    std::pair<NodeId, NodeId> link(const Item &item,
                                   const std::string &where) const;

    template <typename... Args>
    [[noreturn]] void
    fail(const Item &item, const Args &...why) const
    {
        fatal("malformed ", option_, " item '", item.text, "'", why...,
              usage_);
    }

  private:
    const char *option_;
    const char *usage_;
};

} // namespace wormnet

#endif // WORMNET_COMMON_SPEC_HH
