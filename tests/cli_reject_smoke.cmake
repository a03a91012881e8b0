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
# Fits switches x (ports - 1) but not the spanning tree: four switches
# each left with one free port.
expect_rejected(nodes ${IRMCSIM_CLI} topology --switches 4 --nodes 28)
expect_rejected(switches ${IRMC_VERIFY} --switches 2)
expect_rejected(switches ${IRMC_VERIFY} --switches 4 --ports 2)
expect_rejected(ports ${IRMC_VERIFY} --ports 1)
expect_rejected(nodes ${IRMC_VERIFY} --switches 8,16 --nodes 50)
expect_rejected(nodes ${IRMC_VERIFY} --switches 4 --nodes 28)
expect_rejected(trials ${IRMC_VERIFY} --trials 0)
expect_rejected(faults ${IRMC_VERIFY} --faults -1)
expect_rejected(buffer-flits ${IRMC_VERIFY} --deadlock --buffer-flits 0)

# Malformed numbers: none may silently run the default instead.
expect_rejected(switches ${IRMCSIM_CLI} single --switches 8x)
expect_rejected(ratio ${IRMCSIM_CLI} single --ratio abc)
expect_rejected(trials ${IRMC_VERIFY} --trials 2x)
expect_rejected(switches ${IRMC_VERIFY} --switches 8x)
expect_rejected(switches ${IRMC_VERIFY} --switches 8,,16)

# Valid small runs still succeed, on both binaries; the second fills
# its smallest switch count to the generator's limit.
function(expect_ok)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid run failed with ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

expect_ok(${IRMCSIM_CLI} single --switches 8 --packets 1 --size 4
          --topologies 1 --samples 1)
expect_ok(${IRMC_VERIFY} --trials 4 --switches 4,8 --nodes 25)
