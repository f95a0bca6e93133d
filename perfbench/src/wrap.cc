// Link-time wrappers for the traced binary.
//
// Each PERFBENCH_WRAP line names one out-of-line public entry point by its
// mangled symbol. CMakeLists.txt reads the symbols from the lines below and
// links the traced binary with -Wl,--wrap=<symbol>, so every call that
// reaches the symbol from another object file lands in __wrap_<symbol>,
// which times the real function (__real_<symbol>) inside perfbench::span.
// The wrapper receives `this` as its first parameter, exactly as the member
// function does under the Itanium C++ ABI. No library source changes.
//
// The linker only redirects undefined references, so calls made inside the
// object file that defines the symbol, and inline or header-defined
// functions, are not seen. README.md lists what that leaves unmeasured.
#include <cstddef>
#include <vector>

#include "core/network_environment.h"
#include "prediction/cell_classifier.h"
#include "prediction/predictor.h"
#include "probe.h"
#include "profiles/profile_server.h"
#include "qos/admission.h"
#include "reservation/cell_bandwidth.h"
#include "reservation/probabilistic.h"

using namespace imrm;
using perfbench::Entry;

#define PERFBENCH_WRAP(SYM, ENTRY, RET, PARAMS, ARGS)                      \
  extern "C" RET __real_##SYM PARAMS;                                      \
  extern "C" RET __wrap_##SYM PARAMS {                                     \
    return perfbench::span(Entry::ENTRY, [&]() -> RET { return __real_##SYM ARGS; }); \
  }

// clang-format off
PERFBENCH_WRAP(_ZN4imrm8profiles13ProfileServer14record_handoffENS_3net2IdINS2_11PortableTagEEENS3_INS2_7CellTagEEES7_S7_,
               kProfilesRecordHandoff, void,
               (profiles::ProfileServer* self, net::PortableId p, net::CellId prev, net::CellId from, net::CellId to),
               (self, p, prev, from, to))
PERFBENCH_WRAP(_ZNK4imrm10prediction19ThreeLevelPredictor7predictENS_3net2IdINS2_11PortableTagEEENS3_INS2_7CellTagEEES7_,
               kPredictionPredict, prediction::Prediction,
               (const prediction::ThreeLevelPredictor* self, net::PortableId p, net::CellId previous, net::CellId current),
               (self, p, previous, current))
PERFBENCH_WRAP(_ZN4imrm10prediction16CellObservations12record_entryENS_3net2IdINS2_11PortableTagEEENS_3sim7SimTimeE,
               kPredictionRecordEntry, void,
               (prediction::CellObservations* self, net::PortableId p, sim::SimTime t),
               (self, p, t))
PERFBENCH_WRAP(_ZN4imrm10prediction16CellObservations11record_exitENS_3net2IdINS2_11PortableTagEEENS_3sim7SimTimeEb,
               kPredictionRecordExit, void,
               (prediction::CellObservations* self, net::PortableId p, sim::SimTime t, bool pass_through),
               (self, p, t, pass_through))
PERFBENCH_WRAP(_ZN4imrm11reservation13CellBandwidth9admit_newENS_3net2IdINS2_11PortableTagEEEd,
               kReservationAdmitNew, bool,
               (reservation::CellBandwidth* self, net::PortableId p, qos::BitsPerSecond b),
               (self, p, b))
PERFBENCH_WRAP(_ZN4imrm11reservation13CellBandwidth13admit_handoffENS_3net2IdINS2_11PortableTagEEEd,
               kReservationAdmitHandoff, bool,
               (reservation::CellBandwidth* self, net::PortableId p, qos::BitsPerSecond b),
               (self, p, b))
PERFBENCH_WRAP(_ZN4imrm11reservation13CellBandwidth11reserve_forENS_3net2IdINS2_11PortableTagEEEd,
               kReservationReserveFor, void,
               (reservation::CellBandwidth* self, net::PortableId p, qos::BitsPerSecond b),
               (self, p, b))
PERFBENCH_WRAP(_ZN4imrm11reservation13CellBandwidth18cancel_reservationENS_3net2IdINS2_11PortableTagEEE,
               kReservationCancelReservation, void,
               (reservation::CellBandwidth* self, net::PortableId p),
               (self, p))
PERFBENCH_WRAP(_ZN4imrm11reservation13CellBandwidth7releaseENS_3net2IdINS2_11PortableTagEEE,
               kReservationRelease, void,
               (reservation::CellBandwidth* self, net::PortableId p),
               (self, p))
PERFBENCH_WRAP(_ZNK4imrm11reservation24ProbabilisticReservation9admit_newEmRKSt6vectorIiSaIiEES6_,
               kReservationProbAdmitNew, bool,
               (const reservation::ProbabilisticReservation* self, std::size_t type, const std::vector<int>& here, const std::vector<int>& there),
               (self, type, here, there))
PERFBENCH_WRAP(_ZN4imrm4core18NetworkEnvironment15open_connectionENS_3net2IdINS2_11PortableTagEEERKNS_3qos10QosRequestENS0_9DirectionE,
               kCoreOpenConnection, bool,
               (core::NetworkEnvironment* self, net::PortableId p, const qos::QosRequest& request, core::Direction dir),
               (self, p, request, dir))
PERFBENCH_WRAP(_ZN4imrm4core18NetworkEnvironment7handoffENS_3net2IdINS2_11PortableTagEEENS3_INS2_7CellTagEEE,
               kCoreHandoff, bool,
               (core::NetworkEnvironment* self, net::PortableId p, net::CellId to),
               (self, p, to))
PERFBENCH_WRAP(_ZN4imrm4core18NetworkEnvironment16close_connectionENS_3net2IdINS2_11PortableTagEEE,
               kCoreCloseConnection, void,
               (core::NetworkEnvironment* self, net::PortableId p),
               (self, p))
PERFBENCH_WRAP(_ZN4imrm4core18NetworkEnvironment5adaptEv,
               kCoreAdapt, void,
               (core::NetworkEnvironment* self),
               (self))
PERFBENCH_WRAP(_ZNK4imrm3qos17AdmissionPipeline5admitERKNS0_10QosRequestERKSt6vectorINS0_12LinkSnapshotESaIS6_EEdNS0_14ConnectionKindE,
               kQosAdmit, qos::AdmissionResult,
               (const qos::AdmissionPipeline* self, const qos::QosRequest& request, const std::vector<qos::LinkSnapshot>& path, double now, qos::ConnectionKind kind),
               (self, request, path, now, kind))
// clang-format on
