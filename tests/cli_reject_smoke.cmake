# Out-of-range and malformed CLI flags must be rejected up front with
# exit status 2 and a message naming the flag — not run the default, and
# not trip a library precondition (SIGABRT, exit 134). Driven as a ctest
# (see tests/CMakeLists.txt) against the real binaries.
#
# Inputs: -DIRMCSIM_CLI=<binary> -DIRMC_VERIFY=<binary>.

if(NOT DEFINED IRMCSIM_CLI OR NOT DEFINED IRMC_VERIFY)
  message(FATAL_ERROR
          "usage: cmake -DIRMCSIM_CLI=... -DIRMC_VERIFY=... "
          "-P cli_reject_smoke.cmake")
endif()

# Runs the command, requires exit status exactly 2 and `flag` named in
# the `invalid value for --FLAG:` line on stderr.
function(expect_rejected flag)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "expected exit 2, got '${rc}' from: ${ARGN}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  string(FIND "${err}" "invalid value for --${flag}:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name --${flag} for: ${ARGN}\n"
                        "stderr:\n${err}")
  endif()
endfunction()

# Out of range: each would trip a library precondition (SIGABRT) if it
# got past the CLI.
expect_rejected(packets ${IRMCSIM_CLI} single --packets 0)
expect_rejected(switches ${IRMCSIM_CLI} single --switches 0)
expect_rejected(ports ${IRMCSIM_CLI} single --ports 1)
expect_rejected(nodes ${IRMCSIM_CLI} single --nodes -5)
expect_rejected(nodes ${IRMCSIM_CLI} topology --switches 2 --ports 4
                --nodes 7)
expect_rejected(size ${IRMCSIM_CLI} single --size 32)

# Malformed numbers: none may silently run the default instead.
expect_rejected(switches ${IRMCSIM_CLI} single --switches 8x)
expect_rejected(ratio ${IRMCSIM_CLI} single --ratio abc)
expect_rejected(trials ${IRMC_VERIFY} --trials 2x)

# A valid small run still succeeds.
execute_process(
  COMMAND ${IRMCSIM_CLI} single --switches 8 --packets 1 --size 4
          --topologies 1 --samples 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "valid run failed with ${rc}:\n${out}\n${err}")
endif()
