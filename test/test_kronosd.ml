(* The kronosd binary's command line: a malformed flag value is a usage
   error (exit 2, the message names the flag) reported before the daemon
   binds anything, never an uncaught exception. *)

(* The kronosd executable built beside this test binary. *)
let kronosd () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/kronosd.exe"

(* Run kronosd with [args]; its exit code and stderr.  A daemon still
   running after 10 s has accepted the arguments: it is killed and the
   test fails. *)
let run_kronosd args =
  let err = Filename.temp_file "kronosd" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process (kronosd ())
      (Array.of_list ("kronosd" :: args))
      devnull devnull fd
  in
  Unix.close fd;
  Unix.close devnull;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "kronosd %s kept running" (String.concat " " args)
    | _, Unix.WEXITED code -> code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Alcotest.failf "kronosd killed by signal %d" s
  in
  let code = wait () in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (code, stderr)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_bad_metrics_addr () =
  List.iter
    (fun value ->
      let code, stderr =
        run_kronosd
          [ "--addr"; "1"; "--port"; "0"; "--coordinate"; "--metrics-addr"; value ]
      in
      Alcotest.(check int) ("exit code for --metrics-addr " ^ value) 2 code;
      if not (contains stderr "--metrics-addr") || contains stderr "Fatal error"
      then
        Alcotest.failf "--metrics-addr %s: not a usage error:\n%s" value stderr)
    [ "nope"; "127.0.0.1:x"; "70000"; "-1" ]

let suites =
  [
    ( "kronosd",
      [ Alcotest.test_case "bad --metrics-addr is a usage error" `Quick
          test_bad_metrics_addr ] );
  ]
