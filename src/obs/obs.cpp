#include "df3/obs/obs.hpp"

namespace df3::obs {

namespace detail {
Observability* g_current = nullptr;
}  // namespace detail

}  // namespace df3::obs
