/* Level-triggered epoll(7) for [Epoll]: one binding each for
   epoll_create1, epoll_ctl and epoll_wait.

   The wait takes its timeout in nanoseconds and passes it on through
   epoll_pwait2 (Linux 5.11, glibc 2.35), whose timespec keeps a
   sub-millisecond wait (a loop's next timer, an open-loop generator's
   next arrival) sub-millisecond; where that call is missing it falls
   back to epoll_wait, rounding the timeout up to whole milliseconds.

   [kronos_epoll_wait] gathers events into a C array on its own stack and
   copies them into the caller's two int arrays only after it has taken
   the runtime lock back, so the OCaml heap is never touched while other
   domains run.  A descriptor is an int on Unix, so [Unix.file_descr]
   values pass through [Int_val]/[Val_int]. */

#define CAML_NAME_SPACE
#include <errno.h>
#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#define MAX_EVENTS 256

value kronos_epoll_create(value unit)
{
  (void)unit;
  int fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0) caml_uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

/* [op]: 0 add, 1 modify, 2 delete.  An add that finds the descriptor
   already registered modifies it, a modify that finds it missing adds
   it, and a delete of a descriptor epoll no longer holds (closed, or
   never added) succeeds: a descriptor number the kernel reused can then
   never raise here. */
value kronos_epoll_ctl(value epfd, value op, value fd, value events)
{
  struct epoll_event ev;
  int e = Int_val(epfd), f = Int_val(fd);
  ev.events = (uint32_t)Int_val(events);
  ev.data.fd = f;
  switch (Int_val(op)) {
  case 0:
    if (epoll_ctl(e, EPOLL_CTL_ADD, f, &ev) == 0) return Val_unit;
    if (errno == EEXIST && epoll_ctl(e, EPOLL_CTL_MOD, f, &ev) == 0)
      return Val_unit;
    break;
  case 1:
    if (epoll_ctl(e, EPOLL_CTL_MOD, f, &ev) == 0) return Val_unit;
    if (errno == ENOENT && epoll_ctl(e, EPOLL_CTL_ADD, f, &ev) == 0)
      return Val_unit;
    break;
  default:
    if (epoll_ctl(e, EPOLL_CTL_DEL, f, &ev) == 0) return Val_unit;
    if (errno == ENOENT || errno == EBADF) return Val_unit;
    break;
  }
  caml_uerror("epoll_ctl", Nothing);
  return Val_unit; /* not reached */
}

/* Runs without the runtime lock. */
static int wait_ns(int e, struct epoll_event *buf, int max, long long ns)
{
#if defined(__GLIBC_PREREQ)
#if __GLIBC_PREREQ(2, 35)
  static int no_pwait2 = 0; /* set once, the same way by every domain */
  if (!no_pwait2) {
    struct timespec ts, *tsp = NULL;
    if (ns >= 0) {
      ts.tv_sec = (time_t)(ns / 1000000000);
      ts.tv_nsec = (long)(ns % 1000000000);
      tsp = &ts;
    }
    int n = epoll_pwait2(e, buf, max, tsp, NULL);
    if (n >= 0 || errno != ENOSYS) return n;
    no_pwait2 = 1;
  }
#endif
#endif
  return epoll_wait(e, buf, max, ns < 0 ? -1 : (int)((ns + 999999) / 1000000));
}

/* Wait at most [timeout_ns] (negative: no limit) and write up to
   min(MAX_EVENTS, length) ready descriptors and their event masks into
   [fds] and [evs].  Returns the count; an interrupted wait returns 0. */
value kronos_epoll_wait(value epfd, value fds, value evs, value timeout_ns)
{
  CAMLparam2(fds, evs);
  struct epoll_event buf[MAX_EVENTS];
  int e = Int_val(epfd);
  long long timeout = (long long)Long_val(timeout_ns);
  int max = (int)Wosize_val(fds);
  if (max > (int)Wosize_val(evs)) max = (int)Wosize_val(evs);
  if (max > MAX_EVENTS) max = MAX_EVENTS;
  if (max < 1) CAMLreturn(Val_int(0));
  caml_enter_blocking_section();
  int n = wait_ns(e, buf, max, timeout);
  int err = errno;
  caml_leave_blocking_section();
  if (n < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    caml_unix_error(err, "epoll_wait", Nothing);
  }
  for (int i = 0; i < n; i++) {
    /* immediate values: no write barrier needed */
    Field(fds, i) = Val_int(buf[i].data.fd);
    Field(evs, i) = Val_int((intnat)buf[i].events);
  }
  CAMLreturn(Val_int(n));
}
