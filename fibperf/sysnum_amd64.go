package main

// sendmmsg postdates the syscall package's freeze on amd64.
const sysSendmmsg = 307
